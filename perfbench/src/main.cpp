// ftlperf: runs one benchmark workload and prints its result as one JSON
// line (the last line of stdout).
//
//   ftlperf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           --daemon <path to ftlcoordd> [--out-dir <dir>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// with spans recorded around the benchmark's calls into the program, adds
// the stepped per-layer ladder, and prints the per-layer metrics. Exits 1
// when a correctness check failed, 2 on bad usage.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "ftlperf: %s\nusage: ftlperf --workload <serve-small-frames|"
               "serve-pair-flood|fig4-sharded|fig3-scaled> --seed N "
               "--seconds S --trace 0|1 --daemon PATH [--out-dir DIR]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage("expected --flag value pairs");
    args[key.substr(2)] = argv[i + 1];
  }
  Options opt;
  opt.workload = args["workload"];
  opt.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  opt.seconds = std::atof(args["seconds"].c_str());
  opt.trace = args["trace"] == "1";
  opt.daemon = args["daemon"];
  opt.out_dir = args["out-dir"];
  if (opt.seconds <= 0.0) return usage("--seconds must be positive");

  RunResult res;
  if (opt.workload == "serve-small-frames" ||
      opt.workload == "serve-pair-flood") {
    if (opt.daemon.empty()) return usage("--daemon is required");
    res = run_serving(opt, serve_spec(opt.workload));
  } else if (opt.workload == "fig4-sharded") {
    res = run_fig4(opt);
  } else if (opt.workload == "fig3-scaled") {
    res = run_fig3(opt);
  } else {
    return usage("unknown --workload");
  }

  // Report in catalogue order; a per-layer metric the workload did not
  // produce (its layer was not exercised) reads 0.
  std::map<std::string, double> got;
  for (const Metric& m : res.metrics) got[m.name] = m.value;
  RunResult out = res;
  out.metrics.clear();
  const auto emit = [&](const auto& catalogue, bool fill) {
    for (const MetricSpec& spec : catalogue) {
      const auto it = got.find(spec.name);
      if (it == got.end() && !fill) {
        out.violate(std::string("metric not measured: ") + spec.name);
        continue;
      }
      out.add(spec.name, it == got.end() ? 0.0 : it->second, spec.unit);
    }
  };
  if (opt.trace) {
    emit(kPerLayer, true);
  } else {
    emit(kEndToEnd, false);
  }
  for (const std::string& v : out.violations) {
    std::cerr << "ftlperf: CHECK FAILED: " << v << "\n";
  }
  std::cout << result_json(out) << std::endl;
  return out.correct ? 0 : 1;
}
