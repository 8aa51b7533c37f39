/**
 * @file
 * fleetio_cellbench: run one benchmark cell and print its numbers as
 * one JSON object on stdout.
 *
 *   fleetio_cellbench --workload <name> --seed <n> [--traced]
 *                     [--spans <path>]
 *
 * --traced records spans (cell -> phase -> window slice -> controller
 * tick), derives per-layer numbers from them, and runs the layer
 * microbenchmarks on inputs taken from the cell. bench/cell/run.py
 * drives this binary, one fresh process per cell.
 */
#include <climits>
#include <iostream>
#include <string>

#include "bench/cell/cell.h"
#include "src/core/env.h"
#include "src/obs/json.h"

using namespace fleetio;
using namespace fleetio::cellbench;

namespace {

int
usage()
{
    std::cerr << "usage: fleetio_cellbench --workload <name> --seed <n> "
                 "[--traced] [--spans <path>]\nworkloads:";
    for (const std::string &n : workloadNames())
        std::cerr << " " << n;
    std::cerr << "\n";
    return 2;
}

void
printResult(const CellResult &r, bool micro_ok)
{
    std::cout << "{\"digest\":\"" << r.digest << "\""
              << ",\"micro_ok\":" << (micro_ok ? "true" : "false");
    const auto num = [](const char *key, double v) {
        std::cout << ",\"" << key << "\":" << jsonNumber(v);
    };
    num("cell_s", r.cell_s);
    num("setup_s", r.setup_s);
    num("train_s", r.train_s);
    num("measure_wall_s", r.measure_wall_s);
    num("peak_rss_mb", r.peak_rss_mb);
    num("avg_util", r.avg_util);
    num("write_amp", r.write_amp);
    num("bi_bw_mbps", r.bi_bw_mbps);
    num("ls_p50_ms", r.ls_p50_ms);
    num("ls_p99_ms", r.ls_p99_ms);
    num("ls_p999_ms", r.ls_p999_ms);
    num("slo_violation", r.slo_violation);
    num("ls_samples", double(r.ls_samples));
    num("attempted", double(r.attempted));
    num("completed", double(r.completed));
    num("failed", double(r.failed));
    num("stalled_windows", double(r.stalled_windows));
    num("events", double(r.events));
    std::cout << ",\"tenant_requests\":[";
    for (std::size_t i = 0; i < r.tenant_requests.size(); ++i)
        std::cout << (i ? "," : "") << r.tenant_requests[i];
    std::cout << "],\"layer\":{";
    bool first = true;
    for (const auto &[name, v] : r.layer) {
        std::cout << (first ? "" : ",") << "\"" << jsonEscape(name)
                  << "\":" << jsonNumber(v);
        first = false;
    }
    std::cout << "}}\n";
}

}  // namespace

int
main(int argc, char **argv)
{
    std::string workload, spans;
    long seed = -1;
    bool traced = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        if (a == "--workload" && has_value) {
            workload = argv[++i];
        } else if (a == "--seed" && has_value) {
            seed = parseLongStrict(argv[++i], -1, 0, LONG_MAX);
        } else if (a == "--spans" && has_value) {
            spans = argv[++i];
        } else if (a == "--traced") {
            traced = true;
        } else {
            return usage();
        }
    }
    const WorkloadDef *w = findWorkload(workload);
    if (w == nullptr || seed < 0)
        return usage();

    CellResult r = runCell(*w, std::uint64_t(seed), traced, spans);
    const bool micro_ok =
        !traced || runMicrobenchmarks(r, std::uint64_t(seed));
    printResult(r, micro_ok);
    return 0;
}
