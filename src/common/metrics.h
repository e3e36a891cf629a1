// Execution metrics gathered during query evaluation.
//
// Every layer increments counters on the shared Metrics object owned by the
// Database; benchmarks and tests read them to explain *why* one plan beats
// another (I/O counts, seek distance, buffer hits, swizzle operations, ...).
#ifndef NAVPATH_COMMON_METRICS_H_
#define NAVPATH_COMMON_METRICS_H_

#include <cstdint>
#include <string>

namespace navpath {

struct Metrics {
  // Disk level.
  std::uint64_t disk_reads = 0;        // pages read (any mode)
  std::uint64_t disk_seq_reads = 0;    // pages read at sequential cost
  std::uint64_t disk_writes = 0;       // pages written back
  std::uint64_t disk_seek_pages = 0;   // total seek distance in pages
  std::uint64_t async_requests = 0;    // async read requests issued
  std::uint64_t async_reorderings = 0; // async requests served out of order

  // Cross-query I/O scheduling (workload layer). The elevator depth
  // counters sample the pending pool visible to the drive at each service
  // decision; deeper pools mean more reordering freedom (Sec. 7).
  std::uint64_t requests_merged = 0;    // duplicate async reads coalesced
  std::uint64_t elevator_batches = 0;   // async service decisions taken
  std::uint64_t elevator_depth_sum = 0; // pending pool size, summed
  std::uint64_t elevator_depth_max = 0; // deepest pool observed
  // Always 0; nothing increments it. Kept because navbench reports it as
  // the per-layer metric storage.priority_jumps and the recorded
  // ToString() digests hash its line: dropping it changes the benchmark.
  std::uint64_t priority_jumps = 0;

  // Buffer level.
  std::uint64_t buffer_hits = 0;
  std::uint64_t buffer_misses = 0;
  std::uint64_t buffer_evictions = 0;
  std::uint64_t swizzle_ops = 0;    // NodeID -> pointer translations
  std::uint64_t unswizzle_ops = 0;  // pointer -> NodeID translations

  // Fault handling (storage robustness layer).
  std::uint64_t faults_injected = 0;       // fault events the disk injected
  std::uint64_t fault_retries = 0;         // I/O attempts retried with backoff
  std::uint64_t corruptions_detected = 0;  // page checksum mismatches caught
  std::uint64_t fault_fallbacks = 0;       // async->sync degradations taken

  // Navigation level.
  std::uint64_t clusters_visited = 0;  // cluster entries by I/O operators
  std::uint64_t intra_cluster_hops = 0;
  std::uint64_t inter_cluster_hops = 0;
  std::uint64_t node_tests = 0;

  // Algebra level.
  std::uint64_t instances_created = 0;
  std::uint64_t instances_full = 0;
  std::uint64_t speculative_instances = 0;
  std::uint64_t r_set_probes = 0;
  std::uint64_t s_set_probes = 0;
  std::uint64_t fallback_activations = 0;

  /// Mean pending-pool depth over all elevator service decisions.
  double MeanElevatorDepth() const {
    return elevator_batches == 0
               ? 0.0
               : static_cast<double>(elevator_depth_sum) /
                     static_cast<double>(elevator_batches);
  }

  void Reset() { *this = Metrics(); }

  /// Point-in-time copy, taken at the start of a measurement window.
  Metrics Snapshot() const { return *this; }

  /// Counter deltas since `start` (a Snapshot taken earlier): what happened
  /// within the window alone (EXPLAIN ANALYZE's per-path numbers).
  /// elevator_depth_max is a high-water mark, not a counter, so the
  /// window's value is the current maximum.
  Metrics Delta(const Metrics& start) const;

  /// Multi-line human-readable dump (for examples and debugging).
  std::string ToString() const;
};

/// Sums `add` into `into` field-wise (elevator_depth_max as max): the
/// aggregate I/O picture across parallel drives.
void AccumulateMetrics(Metrics* into, const Metrics& add);

}  // namespace navpath

#endif  // NAVPATH_COMMON_METRICS_H_
