#include "bench/cell/cell.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <memory>

#include "src/core/fleetio_controller.h"
#include "src/core/teacher.h"
#include "src/harness/experiment.h"
#include "src/harness/testbed.h"
#include "src/obs/json.h"
#include "src/policies/fleetio_policy.h"
#include "src/virt/channel_allocator.h"

namespace fleetio::cellbench {

namespace {

using Clock = std::chrono::steady_clock;

/** FleetIO pre-training length (FleetIoPolicy::Variant default). */
constexpr int kTrainWindows = 600;

/** Warm-up and measured region, in simulated time. */
constexpr SimTime kWarm = sec(2);
constexpr SimTime kMeasure = sec(30);

/** Drain bound after the measured region, in simulated time. */
constexpr SimTime kDrainMax = sec(2);

/** Cap on the rl microbenchmark inputs kept from one cell. */
constexpr std::size_t kMaxRlSamples = 256;

const std::vector<WorkloadDef> &
allWorkloads()
{
    using K = WorkloadKind;
    static const std::vector<WorkloadDef> defs = {
        {"fleetio_pair", PolicyKind::kFleetIo, {K::kVdiWeb, K::kTeraSort},
         0.5},
        {"shared_read", PolicyKind::kSoftwareIsolation,
         {K::kYcsbB, K::kYcsbB, K::kPageRank, K::kSearchEngine}, 0.5},
        {"shared_write", PolicyKind::kSoftwareIsolation,
         {K::kTeraSort, K::kMlPrep, K::kVdiWeb, K::kYcsbB}, 0.5},
        {"gc_pressure", PolicyKind::kSoftwareIsolation,
         {K::kTeraSort, K::kMlPrep, K::kVdiWeb}, 0.8},
    };
    return defs;
}

/**
 * The controller configuration FleetIoPolicy::setup builds for the
 * default variant. The traced run drives its own copy of the
 * controller; the traced-equals-untraced check catches any drift
 * between this copy and the policy.
 */
FleetIoConfig
fleetConfig(Testbed &tb)
{
    const SsdGeometry &geo = tb.device().geometry();
    FleetIoConfig cfg;
    cfg.decision_window = tb.options().window;
    cfg.beta = 0.6;
    cfg.teacher_windows = kTrainWindows * 2 / 3;
    cfg.supervisor.enabled = true;
    cfg.ppo.adam.lr = 3e-5;
    cfg.ppo.ent_coef = 0.002;
    cfg.harvest_bw_levels.clear();
    cfg.harvestable_bw_levels.clear();
    for (int lvl = 0; lvl <= 8; lvl += 2) {
        const double bw = geo.channelBandwidthMBps() * lvl;
        cfg.harvest_bw_levels.push_back(bw);
        cfg.harvestable_bw_levels.push_back(bw);
    }
    return cfg;
}

/** FNV-1a over the raw bytes of simulated outputs. */
class Digest
{
  public:
    template <typename T>
    void add(const T &v)
    {
        unsigned char b[sizeof(T)];
        std::memcpy(b, &v, sizeof(T));
        for (unsigned char c : b)
            h_ = (h_ ^ c) * 0x100000001b3ull;
    }

    std::string hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      (unsigned long long)h_);
        return buf;
    }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

double
quantileOf(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t idx = std::min(
        v.size() - 1, std::size_t(std::ceil(q * double(v.size())) - 1));
    return v[idx];
}

enum TickKind { kTeacher, kTrain, kDecide, kTickKinds };
const char *const kTickNames[kTickKinds] = {"tick.teacher", "tick.train",
                                            "tick.decide"};
const char *const kTickKeys[kTickKinds] = {"teacher", "train", "decide"};

/** One cell run. */
class Cell
{
  public:
    Cell(const WorkloadDef &w, std::uint64_t seed, bool traced)
        : w_(w), traced_(traced)
    {
        opts_.seed = seed;
        opts_.warmup_fill = w.warmup_fill;
    }

    CellResult run(const std::string &span_path);

  private:
    bool fleetTraced() const
    {
        return traced_ && w_.policy == PolicyKind::kFleetIo;
    }
    void buildFleet(const std::vector<SimTime> &slos);
    void scheduleTick();
    void onTick();
    void captureRlSamples();
    /** Advance @p duration in window-sized Testbed::run slices. */
    void runSliced(SimTime duration, bool measured);
    bool drained();
    void collect();
    void deriveLayers(int cell_span);

    const WorkloadDef &w_;
    const bool traced_;
    TestbedOptions opts_;
    Ledger led_;
    std::unique_ptr<Testbed> tb_;
    std::unique_ptr<Policy> policy_;
    std::unique_ptr<FleetIoController> ctrl_;  // traced FleetIO only
    FleetIoConfig fleet_cfg_;
    bool training_ = false;
    CellResult res_;

    // Per-window samples (sim state read between slices).
    std::vector<std::uint64_t> issued_at_start_;
    std::vector<std::uint64_t> done_at_start_;
    std::size_t pending_max_ = 0;
    std::size_t blocked_max_ = 0;
    std::uint64_t free_min_ = UINT64_MAX;
    std::uint64_t issued_at_measure_ = 0;
    double ls_violations_ = 0;  ///< LS requests over SLO, while measured
};

void
Cell::buildFleet(const std::vector<SimTime> &slos)
{
    // Mirrors FleetIoPolicy::setup, then stands in for start(): the
    // tick is the bench's own event, scheduled where start() would
    // schedule it, so each tick can be timed from here.
    Testbed &tb = *tb_;
    const std::size_t n = w_.tenants.size();
    const auto split =
        ChannelAllocator::equalSplit(tb.device().geometry(), n);
    const std::uint64_t quota = tb.device().geometry().totalBlocks() / n;
    for (std::size_t i = 0; i < n; ++i)
        tb.addTenant(w_.tenants[i], split[i], quota, slos[i]);
    tb.scheduler().usePriority(true);
    tb.scheduler().useStride(false);

    fleet_cfg_ = fleetConfig(tb);
    ctrl_ = std::make_unique<FleetIoController>(fleet_cfg_, tb.eq(),
                                                tb.vssds(), tb.gsb());
    ctrl_->setMetrics(tb.metrics());
    ctrl_->setDriftMonitor(tb.drift());
    for (auto *v : tb.vssds().active())
        ctrl_->addVssd(*v, alphaForKind(tb.tenantKind(v->id())));
    ctrl_->setTraining(true);
    training_ = true;
    ctrl_->admission().start();
    scheduleTick();
}

void
Cell::scheduleTick()
{
    tb_->eq().scheduleAfter(fleet_cfg_.decision_window,
                            [this]() { onTick(); });
}

void
Cell::onTick()
{
    // tick() advances windows() first; classify the window it runs.
    const std::uint64_t w = ctrl_->windows() + 1;
    TickKind kind = kDecide;
    if (training_ && w <= std::uint64_t(fleet_cfg_.teacher_windows))
        kind = kTeacher;
    else if (training_ && fleet_cfg_.train_interval_windows > 0 &&
             w % std::uint64_t(fleet_cfg_.train_interval_windows) == 0)
        kind = kTrain;
    const int span = led_.open(kTickNames[kind]);
    ctrl_->tick();
    led_.close(span);
    if (kind == kTeacher)
        captureRlSamples();
    scheduleTick();
}

void
Cell::captureRlSamples()
{
    // Read-only: the stacked state tick() just pushed, and the label
    // the teacher gives for the vSSD's current state.
    Testbed &tb = *tb_;
    for (auto *v : tb.vssds().active()) {
        if (res_.rl_samples.size() >= kMaxRlSamples)
            return;
        FleetIoAgent *agent = ctrl_->agent(v->id());
        if (agent == nullptr)
            continue;
        RlSample s;
        s.state = ctrl_->states().stacked(v->id());
        s.label = agent->mapper().encode(
            teacherAction(*v, tb.gsb(), tb.device().geometry(),
                          fleet_cfg_.decision_window, fleet_cfg_));
        s.value_target = ctrl_->lifetimeMeanReward(v->id()) /
                         (1.0 - fleet_cfg_.ppo.gamma);
        res_.rl_samples.push_back(std::move(s));
    }
}

void
Cell::runSliced(SimTime duration, bool measured)
{
    Testbed &tb = *tb_;
    const std::size_t n = tb.numTenants();
    const SimTime end = tb.eq().now() + duration;
    while (tb.eq().now() < end) {
        if (measured) {
            issued_at_start_.resize(n);
            done_at_start_.resize(n);
            for (std::size_t i = 0; i < n; ++i) {
                issued_at_start_[i] = tb.workload(VssdId(i)).issued();
                done_at_start_[i] = tb.workload(VssdId(i)).completed();
            }
        }
        const int span = traced_ ? led_.open("slice") : -1;
        tb.run(std::min(opts_.window, end - tb.eq().now()));
        led_.close(span);

        pending_max_ = std::max(pending_max_, tb.eq().pending());
        blocked_max_ = std::max(blocked_max_, tb.scheduler().blockedWrites());
        free_min_ = std::min(free_min_, tb.device().totalFreeBlocks());
        if (!measured)
            continue;
        // A window stalls when some tenant that had I/O outstanding at
        // its start completes nothing during it.
        for (std::size_t i = 0; i < n; ++i) {
            const SyntheticWorkload &wl = tb.workload(VssdId(i));
            if (issued_at_start_[i] > done_at_start_[i] &&
                wl.completed() == done_at_start_[i]) {
                ++res_.stalled_windows;
                break;
            }
        }
    }
}

bool
Cell::drained()
{
    for (std::size_t i = 0; i < tb_->numTenants(); ++i) {
        const SyntheticWorkload &wl = tb_->workload(VssdId(i));
        if (wl.issued() != wl.completed())
            return false;
    }
    return true;
}

void
Cell::collect()
{
    // The same reductions runExperiment applies, plus the LS tail
    // quantiles the benchmark reports.
    Testbed &tb = *tb_;
    res_.events = tb.eq().dispatched();
    res_.avg_util = tb.avgUtilization();
    res_.write_amp = tb.device().writeAmplification();
    double p50 = 0, p99 = 0, p999 = 0, bi_bw = 0;
    int n_ls = 0, n_bi = 0;
    std::uint64_t issued = 0;
    for (auto *v : tb.vssds().active()) {
        const LatencyTracker &lat = v->latency();
        const std::uint64_t reqs = lat.totalCount();
        res_.tenant_requests.push_back(reqs);
        res_.completed += reqs;
        if (isBandwidthIntensive(tb.tenantKind(v->id()))) {
            bi_bw += v->bandwidth().totalMBps(kMeasure);
            ++n_bi;
        } else {
            p50 += double(lat.quantile(0.50));
            p99 += double(lat.quantile(0.99));
            p999 += double(lat.quantile(0.999));
            ls_violations_ += lat.sloViolation() * double(reqs);
            res_.ls_samples += reqs;
            ++n_ls;
        }
        issued += tb.workload(v->id()).issued();
    }
    res_.attempted = issued - issued_at_measure_;
    if (n_ls > 0) {
        res_.ls_p50_ms = p50 / n_ls / 1e6;
        res_.ls_p99_ms = p99 / n_ls / 1e6;
        res_.ls_p999_ms = p999 / n_ls / 1e6;
    }
    if (n_bi > 0)
        res_.bi_bw_mbps = bi_bw / n_bi;

    res_.layer["virt.dispatched_ops"] = double(tb.scheduler().dispatchedOps());
    const FlashDevice &dev = tb.device();
    res_.layer["ssd.host_reads"] = double(dev.hostReads());
    res_.layer["ssd.host_writes"] = double(dev.hostWrites());
    res_.layer["ssd.gc_writes"] = double(dev.gcWrites());
    res_.layer["ssd.erases"] = double(dev.erases());
    double migrated = 0, reclaimed = 0;
    for (auto *v : tb.vssds().active()) {
        migrated += double(v->gc().pagesMigrated());
        reclaimed += double(v->gc().blocksReclaimed());
    }
    res_.layer["ssd.gc_pages_migrated"] = migrated;
    res_.layer["ssd.gc_blocks_reclaimed"] = reclaimed;
    GsbManager &gsb = tb.gsb();
    res_.layer["harvest.gsb_created"] = double(gsb.createdCount());
    res_.layer["harvest.gsb_harvested"] = double(gsb.harvestedCount());
    res_.layer["harvest.gsb_reclaimed"] = double(gsb.reclaimedCount());
    res_.layer["harvest.gsb_revoked"] = double(gsb.revokedCount());
    double admitted = 0, rejected = 0, steps = 0;
    FleetIoController *ctrl = ctrl_.get();
    if (ctrl == nullptr && w_.policy == PolicyKind::kFleetIo)
        ctrl = static_cast<FleetIoPolicy *>(policy_.get())->controller();
    if (ctrl != nullptr) {
        admitted = double(ctrl->admission().processed());
        rejected = double(ctrl->admission().rejected());
        for (auto *v : tb.vssds().active()) {
            if (FleetIoAgent *a = ctrl->agent(v->id()))
                steps += double(a->trainer().optimizerSteps());
        }
    }
    res_.layer["core.admission.processed"] = admitted;
    res_.layer["core.admission.rejected"] = rejected;
    res_.layer["rl.optimizer_steps"] = steps;
}

CellResult
Cell::run(const std::string &span_path)
{
    const int cell = led_.open("cell");

    int ph = led_.open("calibrate");
    std::vector<SimTime> slos;
    for (WorkloadKind k : w_.tenants)
        slos.push_back(calibratedSlo(k, w_.tenants.size(), opts_));
    led_.close(ph);

    ph = led_.open("build");
    tb_ = std::make_unique<Testbed>(opts_);
    if (fleetTraced()) {
        buildFleet(slos);
    } else {
        policy_ = makePolicy(w_.policy);
        policy_->setup(*tb_, w_.tenants, slos);
    }
    led_.close(ph);
    Testbed &tb = *tb_;

    ph = led_.open("fill");
    tb.warmupFill();
    led_.close(ph);

    ph = led_.open("warmup");
    tb.startWorkloads();
    runSliced(kWarm, false);
    led_.close(ph);

    ph = led_.open("prepare");
    const std::uint64_t ev_prepare = tb.eq().dispatched();
    if (fleetTraced())
        runSliced(SimTime(kTrainWindows) * opts_.window, false);
    else
        policy_->prepare(tb);
    led_.close(ph);
    res_.layer["sim.events.prepare"] =
        double(tb.eq().dispatched() - ev_prepare);

    ph = led_.open("measure");
    const std::uint64_t ev_measure = tb.eq().dispatched();
    if (ctrl_ != nullptr) {
        ctrl_->setTraining(false);
        training_ = false;
    } else {
        policy_->beforeMeasure(tb);
    }
    tb.beginMeasurement();
    for (std::size_t i = 0; i < tb.numTenants(); ++i)
        issued_at_measure_ += tb.workload(VssdId(i)).issued();
    runSliced(kMeasure, true);
    tb.endMeasurement();
    led_.close(ph);
    res_.layer["sim.events.measure"] =
        double(tb.eq().dispatched() - ev_measure);

    ph = led_.open("collect");
    collect();
    led_.close(ph);
    led_.close(cell);

    // Bounded drain: stop the generators and give in-flight requests
    // time to finish. Whatever is still incomplete has failed.
    const int drain = led_.open("drain");
    tb.stopWorkloads();
    for (SimTime t = 0; t < kDrainMax && !drained(); t += opts_.window)
        tb.run(opts_.window);
    led_.close(drain);

    std::uint64_t stuck_ls = 0;
    for (std::size_t i = 0; i < tb.numTenants(); ++i) {
        const SyntheticWorkload &wl = tb.workload(VssdId(i));
        const std::uint64_t stuck = wl.issued() - wl.completed();
        res_.failed += stuck;
        if (!isBandwidthIntensive(tb.tenantKind(VssdId(i))))
            stuck_ls += stuck;
    }
    res_.failed = std::min(res_.failed, res_.attempted);
    // A request stuck after the drain misses its SLO.
    const double ls_total = double(res_.ls_samples + stuck_ls);
    res_.slo_violation =
        ls_total > 0 ? (ls_violations_ + double(stuck_ls)) / ls_total : 0.0;

    Digest d;
    d.add(res_.events);
    for (std::uint64_t r : res_.tenant_requests)
        d.add(r);
    for (double v : {res_.avg_util, res_.write_amp, res_.bi_bw_mbps,
                     res_.ls_p50_ms, res_.ls_p99_ms, res_.ls_p999_ms,
                     res_.slo_violation})
        d.add(v);
    for (std::uint64_t v : {res_.attempted, res_.failed,
                            res_.stalled_windows,
                            tb.device().hostWrites(),
                            tb.device().gcWrites(), tb.device().erases()})
        d.add(v);
    res_.digest = d.hex();

    const auto phaseS = [this](const char *name) {
        for (const Span &s : led_.spans()) {
            if (std::strcmp(s.name, name) == 0)
                return double(s.end - s.start) / 1e9;
        }
        return 0.0;
    };
    const Span &c = led_.spans()[std::size_t(cell)];
    res_.cell_s = double(c.end - c.start) / 1e9;
    res_.setup_s = phaseS("calibrate") + phaseS("build") + phaseS("fill");
    res_.train_s = phaseS("prepare");
    res_.measure_wall_s = phaseS("measure");
    res_.layer["harness.calibrate_s"] = phaseS("calibrate");
    res_.layer["harness.build_s"] = phaseS("build");
    res_.layer["harness.collect_s"] = phaseS("collect");
    res_.layer["ssd.warmup_fill_s"] = phaseS("fill");
    res_.layer["sim.pending_max"] = double(pending_max_);
    res_.layer["virt.blocked_writes_max"] = double(blocked_max_);
    res_.layer["ssd.free_blocks_min"] = double(free_min_);
    res_.layer["workloads.issued"] = double(res_.attempted);
    res_.layer["workloads.completed"] = double(res_.completed);
    res_.layer["workloads.ls_requests"] = double(res_.ls_samples);
    res_.layer["workloads.stalled_windows"] = double(res_.stalled_windows);
    if (traced_)
        deriveLayers(cell);
    res_.fleet_cfg = fleet_cfg_;
    res_.peak_rss_mb = peakRssMb();
    if (!span_path.empty())
        led_.write(span_path);
    return std::move(res_);
}

void
Cell::deriveLayers(int cell_span)
{
    const std::vector<Span> &spans = led_.spans();
    std::map<std::string, double> slice_self;  // by phase
    std::vector<double> slice_ms;
    double tick_s[kTickKinds] = {0, 0, 0};
    double ticks[kTickKinds] = {0, 0, 0};
    std::int64_t covered = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const std::int64_t self = led_.selfNs(int(i));
        if (led_.within(int(i), cell_span))
            covered += self;
        if (std::strcmp(s.name, "slice") == 0) {
            slice_self[spans[std::size_t(s.parent)].name] +=
                double(self) / 1e9;
            slice_ms.push_back(double(self) / 1e6);
        }
        for (int k = 0; k < kTickKinds; ++k) {
            if (std::strcmp(s.name, kTickNames[k]) == 0) {
                tick_s[k] += double(s.end - s.start) / 1e9;
                ticks[k] += 1;
            }
        }
    }
    const Span &c = spans[std::size_t(cell_span)];
    res_.layer["trace.coverage"] = double(covered) / double(c.end - c.start);

    for (const char *phase : {"warmup", "prepare", "measure"})
        res_.layer[std::string("sim.self_s.") + phase] = slice_self[phase];
    for (const char *phase : {"prepare", "measure"}) {
        const double ev = res_.layer[std::string("sim.events.") + phase];
        res_.layer[std::string("sim.ns_per_event.") + phase] =
            ev > 0 ? slice_self[phase] * 1e9 / ev : 0.0;
    }
    const double ev_m = res_.layer["sim.events.measure"];
    res_.layer["sim.events_per_s"] =
        slice_self["measure"] > 0 ? ev_m / slice_self["measure"] : 0.0;
    res_.layer["sim.events_per_io"] =
        res_.completed > 0 ? ev_m / double(res_.completed) : 0.0;
    res_.layer["sim.window_self_ms_p99"] = quantileOf(slice_ms, 0.99);
    for (int k = 0; k < kTickKinds; ++k) {
        res_.layer[std::string("core.tick_s.") + kTickKeys[k]] = tick_s[k];
        res_.layer[std::string("core.ticks.") + kTickKeys[k]] = ticks[k];
    }
}

}  // namespace

Ledger::Ledger() : origin_(Clock::now()) {}

bool
Ledger::within(int idx, int ancestor) const
{
    for (int p = spans_[std::size_t(idx)].parent; p >= 0;
         p = spans_[std::size_t(p)].parent) {
        if (p == ancestor)
            return true;
    }
    return false;
}

int
Ledger::open(const char *name)
{
    const std::int64_t now =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - origin_)
            .count();
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, now, now, parent});
    child_ns_.push_back(0);
    stack_.push_back(int(spans_.size() - 1));
    return stack_.back();
}

void
Ledger::close(int idx)
{
    if (idx < 0)
        return;
    Span &s = spans_[std::size_t(idx)];
    s.end = std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - origin_)
                .count();
    stack_.pop_back();
    if (s.parent >= 0)
        child_ns_[std::size_t(s.parent)] += s.end - s.start;
}

std::int64_t
Ledger::selfNs(int idx) const
{
    const Span &s = spans_[std::size_t(idx)];
    return s.end - s.start - child_ns_[std::size_t(idx)];
}

bool
Ledger::write(const std::string &path) const
{
    std::ofstream os(path);
    for (const Span &s : spans_) {
        os << "{\"name\":\"" << jsonEscape(s.name)
           << "\",\"start_ns\":" << s.start << ",\"end_ns\":" << s.end
           << ",\"parent\":" << s.parent << "}\n";
    }
    return bool(os);
}

const WorkloadDef *
findWorkload(const std::string &name)
{
    for (const WorkloadDef &w : allWorkloads()) {
        if (w.name == name)
            return &w;
    }
    return nullptr;
}

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    for (const WorkloadDef &w : allWorkloads())
        names.push_back(w.name);
    return names;
}

CellResult
runCell(const WorkloadDef &w, std::uint64_t seed, bool traced,
        const std::string &span_path)
{
    Cell cell(w, seed, traced);
    return cell.run(span_path);
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace fleetio::cellbench
