// Bench trajectory files: the append-only perf history behind
// `BENCH_<name>.json`.
//
// Schema (`ftl.obs.bench_trajectory/v1`):
//   {
//     "schema": "ftl.obs.bench_trajectory/v1",
//     "bench": "bench_qnet_timing",
//     "entries": [
//       {"git_rev": "...", "utc": "2026-08-06T12:00:00Z", "seed": 42,
//        "wall_time_s": 1.23, "cpu_time_s": 1.20,
//        "counters": {"qnet.live.pairs.delivered": 5303331, ...}},
//       ...
//     ]
//   }
// One file per bench binary; every `ftlbench run` appends one entry per
// repetition (the file is rewritten with the entry list extended — existing
// entries are never modified or dropped, so the history is append-only at
// the entry level). Counters are the run report's counters summed across
// label sets per name, which keeps entries comparable even when label
// cardinality changes between revisions.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace ftl::benchtool {

inline constexpr std::string_view kTrajectorySchema =
    "ftl.obs.bench_trajectory/v1";

struct TrajectoryEntry {
  std::string git_rev;
  /// ISO-8601 UTC timestamp of the run, e.g. "2026-08-06T12:00:00Z".
  std::string utc;
  std::uint64_t seed = 0;
  double wall_time_s = 0.0;
  double cpu_time_s = 0.0;
  /// Selected counters by dotted name (label sets summed), sorted by name.
  std::vector<std::pair<std::string, double>> counters;

  /// Looks up a metric by key: "wall_time_s", "cpu_time_s", or a counter
  /// name. nullopt when the entry does not carry the counter.
  [[nodiscard]] std::optional<double> metric(std::string_view key) const;
};

struct Trajectory {
  std::string bench;
  std::vector<TrajectoryEntry> entries;
};

/// Canonical file name for a bench's trajectory: `BENCH_<bench>.json`
/// (a leading "bench_" in the binary name is dropped:
/// bench_qnet_timing -> BENCH_qnet_timing.json).
[[nodiscard]] std::string trajectory_filename(std::string_view bench);

/// Collapses a snapshot's counters into per-name sums (labels merged),
/// sorted by name — the `counters` object of a trajectory entry.
[[nodiscard]] std::vector<std::pair<std::string, double>> collapse_counters(
    const obs::Snapshot& snapshot);

[[nodiscard]] std::string trajectory_json(const Trajectory& t);

/// Strict parse; nullopt on syntax errors, a wrong schema tag, or missing
/// required fields.
[[nodiscard]] std::optional<Trajectory> parse_trajectory(
    std::string_view text);

/// Reads and parses `path`; nullopt when unreadable or invalid.
[[nodiscard]] std::optional<Trajectory> load_trajectory(
    const std::string& path);

/// Appends `entry` to the trajectory at `path`, creating the file when
/// absent. Fails (returns false) when the existing file is invalid or
/// records a different bench name — a corrupted history must not be
/// silently replaced.
bool append_entry(const std::string& path, const std::string& bench,
                  const TrajectoryEntry& entry);

}  // namespace ftl::benchtool
