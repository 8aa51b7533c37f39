#include <algorithm>
#include <array>
#include <chrono>
#include <memory>

#include "bench/cell/cell.h"
#include "src/core/agent.h"
#include "src/sim/event_queue.h"
#include "src/sim/rng.h"
#include "src/ssd/ftl.h"

namespace fleetio::cellbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kReps = 5;

/** Median over kReps of @p body's wall time per operation, in ns.
 *  @p body returns how many operations it ran; @p setup runs untimed
 *  before each repetition. */
template <typename Setup, typename Body>
double
medianNsPerOp(Setup &&setup, Body &&body)
{
    std::array<double, kReps> ns{};
    for (double &v : ns) {
        setup();
        const auto t0 = Clock::now();
        const std::size_t ops = body();
        v = double(std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - t0)
                       .count()) /
            double(ops);
    }
    std::sort(ns.begin(), ns.end());
    return ns[kReps / 2];
}

/** FleetIoAgent::imitate / decide / train on the captured samples. */
void
rlMicro(CellResult &res, std::uint64_t seed)
{
    const std::vector<RlSample> &s = res.rl_samples;
    const std::size_t mb = res.fleet_cfg.ppo.minibatch;
    if (s.size() < mb) {
        // No agents in this cell: the layer is absent, not free.
        for (const char *k : {"rl.imitate_us", "rl.decide_us", "rl.train_ms"})
            res.layer[k] = 0.0;
        return;
    }
    const auto sample = [&s](std::size_t k) -> const RlSample & {
        return s[k % s.size()];
    };

    // imitate: the replay set holds a minibatch before any update, so
    // fill it untimed; every timed call then runs the Adam updates.
    constexpr std::size_t kImitate = 64;
    FleetIoAgent bc(0, res.fleet_cfg, seed);
    std::size_t next = 0;
    for (; next + 1 < mb; ++next)
        bc.imitate(sample(next).state, sample(next).label,
                   sample(next).value_target);
    res.layer["rl.imitate_us"] =
        medianNsPerOp([] {}, [&] {
            for (std::size_t k = 0; k < kImitate; ++k, ++next)
                bc.imitate(sample(next).state, sample(next).label,
                           sample(next).value_target);
            return kImitate;
        }) / 1e3;

    constexpr std::size_t kDecide = 512;
    FleetIoAgent agent(0, res.fleet_cfg, seed);
    res.layer["rl.decide_us"] =
        medianNsPerOp([] {}, [&] {
            for (std::size_t k = 0; k < kDecide; ++k)
                agent.decide(sample(k).state);
            return kDecide;
        }) / 1e3;

    // train: two minibatches of transitions, then one PPO update.
    res.layer["rl.train_ms"] =
        medianNsPerOp(
            [&] {
                for (std::size_t k = 0; k < 2 * mb; ++k) {
                    agent.decide(sample(k).state);
                    agent.completeTransition(sample(k).value_target *
                                             (1.0 - res.fleet_cfg.ppo.gamma));
                }
            },
            [&] {
                agent.train(sample(0).state);
                return std::size_t(1);
            }) /
        1e6;
}

/** EventQueue::scheduleAt + step pairs at the cell's pending depth. */
void
eventQueueMicro(CellResult &res, std::uint64_t seed)
{
    constexpr std::size_t kOps = 200000;
    constexpr SimTime kSpread = usec(1000);
    const std::size_t depth =
        std::max<std::size_t>(1, std::size_t(res.layer["sim.pending_max"]));
    // A 48-byte capture, the size of the device completion wrappers.
    std::array<std::uint64_t, 6> payload{};
    EventQueue eq;
    Rng rng(seed);
    for (std::size_t i = 0; i < depth; ++i)
        eq.scheduleAt(SimTime(rng.uniformInt(kSpread)) + 1,
                      [payload]() { (void)payload; });
    res.layer["sim.schedule_step_ns"] = medianNsPerOp([] {}, [&] {
        for (std::size_t k = 0; k < kOps; ++k) {
            eq.scheduleAt(eq.now() + 1 + SimTime(rng.uniformInt(kSpread)),
                          [payload]() { (void)payload; });
            eq.step();
        }
        return kOps;
    });
}

/**
 * Ftl::allocateWrite (fresh pages) and lookup at benchGeometry.
 * @return false when a write or lookup misbehaved.
 */
bool
ftlMicro(CellResult &res, std::uint64_t seed)
{
    const SsdGeometry geo = benchGeometry();
    Ftl::Config cfg;
    cfg.vssd = 0;
    cfg.quota_blocks = geo.totalBlocks() / 2;
    for (ChannelId ch = 0; ch < geo.num_channels / 2; ++ch)
        cfg.channels.push_back(ch);

    std::unique_ptr<EventQueue> eq;
    std::unique_ptr<FlashDevice> dev;
    std::unique_ptr<Ftl> ftl;
    std::vector<Lpa> order;
    Rng rng(seed);
    bool ok = true;
    res.layer["ssd.ftl_write_ns"] = medianNsPerOp(
        [&] {
            ftl.reset();
            dev.reset();
            eq = std::make_unique<EventQueue>();
            dev = std::make_unique<FlashDevice>(geo, *eq);
            ftl = std::make_unique<Ftl>(*dev, cfg);
            // Fresh writes to 90% of the logical space, random order.
            order.resize(ftl->logicalPages());
            for (std::size_t i = 0; i < order.size(); ++i)
                order[i] = Lpa(i);
            for (std::size_t i = order.size(); i > 1; --i)
                std::swap(order[i - 1], order[rng.uniformInt(i)]);
            order.resize(order.size() * 9 / 10);
        },
        [&] {
            Ppa ppa;
            for (Lpa lpa : order)
                ok = ftl->allocateWrite(lpa, ppa) && ok;
            return order.size();
        });

    constexpr std::size_t kLookups = 1000000;
    res.layer["ssd.ftl_lookup_ns"] = medianNsPerOp([] {}, [&] {
        for (std::size_t k = 0; k < kLookups; ++k)
            ok = ftl->lookup(order[k % order.size()]) != kNoPpa && ok;
        return kLookups;
    });
    return ok;
}

}  // namespace

bool
runMicrobenchmarks(CellResult &res, std::uint64_t seed)
{
    rlMicro(res, seed);
    eventQueueMicro(res, seed);
    return ftlMicro(res, seed);
}

}  // namespace fleetio::cellbench
