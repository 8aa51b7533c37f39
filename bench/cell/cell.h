/**
 * @file
 * FleetIO cell benchmark: one workload run as one single-threaded cell
 * (calibrate -> build -> warm-up fill -> warm-up -> prepare -> measure
 * -> collect -> drain), driven through the library's public API.
 *
 * A cell runs either untraced (end-to-end numbers) or traced. The
 * traced run keeps spans in memory — cell -> phase -> per-window
 * Testbed::run slice -> controller tick — and derives per-layer
 * numbers from them. All spans are recorded from this directory's
 * files around calls into the library; nothing inside src/ is timed.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/core/config.h"
#include "src/policies/policy.h"
#include "src/rl/matrix.h"
#include "src/workloads/generators.h"

namespace fleetio::cellbench {

/** One benchmark workload: a policy over a fixed tenant mix. */
struct WorkloadDef
{
    std::string name;
    PolicyKind policy = PolicyKind::kSoftwareIsolation;
    std::vector<WorkloadKind> tenants;
    double warmup_fill = 0.5;
};

/** The benchmark's workloads, by name; nullptr when unknown. */
const WorkloadDef *findWorkload(const std::string &name);
std::vector<std::string> workloadNames();

/** One recorded span. Times are ns since the ledger's origin. */
struct Span
{
    const char *name;
    std::int64_t start;
    std::int64_t end;
    int parent;  ///< index of the enclosing span, -1 for the root
};

/**
 * In-memory span recorder. Spans nest by open/close order; close(-1)
 * is a no-op, so callers skip optional spans by passing -1 through.
 */
class Ledger
{
  public:
    Ledger();

    int open(const char *name);
    void close(int idx);

    /** True when @p ancestor encloses span @p idx. */
    bool within(int idx, int ancestor) const;

    const std::vector<Span> &spans() const { return spans_; }

    /** Duration of span @p idx minus the time its children cover. */
    std::int64_t selfNs(int idx) const;

    /** Write every span as JSON lines to @p path. */
    bool write(const std::string &path) const;

  private:
    std::chrono::steady_clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<std::int64_t> child_ns_;  ///< per span: children's total
    std::vector<int> stack_;
};

/** Behaviour-cloning / decision inputs captured from a FleetIO cell. */
struct RlSample
{
    rl::Vector state;
    std::vector<std::size_t> label;
    double value_target = 0.0;
};

/** Everything a cell reports. Sim outputs are deterministic for a
 *  (workload, seed); host times are wall clock. */
struct CellResult
{
    // Host (wall) times, seconds.
    double cell_s = 0, setup_s = 0, train_s = 0, measure_wall_s = 0;
    double peak_rss_mb = 0;

    // Modelled outcomes (simulated time).
    double avg_util = 0, write_amp = 0, bi_bw_mbps = 0;
    double ls_p50_ms = 0, ls_p99_ms = 0, ls_p999_ms = 0;
    double slo_violation = 0;
    std::uint64_t ls_samples = 0;
    std::uint64_t attempted = 0;   ///< requests issued while measured
    std::uint64_t completed = 0;   ///< requests completed while measured
    std::uint64_t failed = 0;      ///< still incomplete after the drain
    std::uint64_t stalled_windows = 0;
    std::uint64_t events = 0;      ///< dispatched up to collect
    std::vector<std::uint64_t> tenant_requests;
    std::string digest;            ///< FNV-1a over the sim outputs

    /** Per-layer numbers by metric name (traced cells fill most). */
    std::map<std::string, double> layer;

    /** Inputs for the rl microbenchmarks (traced FleetIO cells). */
    std::vector<RlSample> rl_samples;
    FleetIoConfig fleet_cfg;
};

/** Run one cell of @p w with @p seed, traced or not. Traced runs write
 *  their spans to @p span_path when it is non-empty. */
CellResult runCell(const WorkloadDef &w, std::uint64_t seed, bool traced,
                   const std::string &span_path);

/**
 * Layer microbenchmarks on inputs from a traced cell: fills rl.*
 * (FleetIO cells only), sim.schedule_step_ns at the cell's pending
 * depth, and ssd.ftl_{write,lookup}_ns at benchGeometry.
 * @return false when an FTL write or lookup misbehaved.
 */
bool runMicrobenchmarks(CellResult &res, std::uint64_t seed);

/** Peak resident set of this process, MB. */
double peakRssMb();

}  // namespace fleetio::cellbench
