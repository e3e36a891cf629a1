#include "common/metrics.h"

#include <algorithm>
#include <cstdio>

namespace navpath {

Metrics Metrics::Delta(const Metrics& start) const {
  Metrics d;
  d.disk_reads = disk_reads - start.disk_reads;
  d.disk_seq_reads = disk_seq_reads - start.disk_seq_reads;
  d.disk_writes = disk_writes - start.disk_writes;
  d.disk_seek_pages = disk_seek_pages - start.disk_seek_pages;
  d.async_requests = async_requests - start.async_requests;
  d.async_reorderings = async_reorderings - start.async_reorderings;
  d.requests_merged = requests_merged - start.requests_merged;
  d.elevator_batches = elevator_batches - start.elevator_batches;
  d.elevator_depth_sum = elevator_depth_sum - start.elevator_depth_sum;
  d.elevator_depth_max = elevator_depth_max;  // high-water mark, not a count
  d.priority_jumps = priority_jumps - start.priority_jumps;
  d.buffer_hits = buffer_hits - start.buffer_hits;
  d.buffer_misses = buffer_misses - start.buffer_misses;
  d.buffer_evictions = buffer_evictions - start.buffer_evictions;
  d.swizzle_ops = swizzle_ops - start.swizzle_ops;
  d.unswizzle_ops = unswizzle_ops - start.unswizzle_ops;
  d.faults_injected = faults_injected - start.faults_injected;
  d.fault_retries = fault_retries - start.fault_retries;
  d.corruptions_detected = corruptions_detected - start.corruptions_detected;
  d.fault_fallbacks = fault_fallbacks - start.fault_fallbacks;
  d.clusters_visited = clusters_visited - start.clusters_visited;
  d.intra_cluster_hops = intra_cluster_hops - start.intra_cluster_hops;
  d.inter_cluster_hops = inter_cluster_hops - start.inter_cluster_hops;
  d.node_tests = node_tests - start.node_tests;
  d.instances_created = instances_created - start.instances_created;
  d.instances_full = instances_full - start.instances_full;
  d.speculative_instances =
      speculative_instances - start.speculative_instances;
  d.r_set_probes = r_set_probes - start.r_set_probes;
  d.s_set_probes = s_set_probes - start.s_set_probes;
  d.fallback_activations = fallback_activations - start.fallback_activations;
  return d;
}

void AccumulateMetrics(Metrics* into, const Metrics& add) {
  into->disk_reads += add.disk_reads;
  into->disk_seq_reads += add.disk_seq_reads;
  into->disk_writes += add.disk_writes;
  into->disk_seek_pages += add.disk_seek_pages;
  into->async_requests += add.async_requests;
  into->async_reorderings += add.async_reorderings;
  into->requests_merged += add.requests_merged;
  into->elevator_batches += add.elevator_batches;
  into->elevator_depth_sum += add.elevator_depth_sum;
  into->elevator_depth_max =
      std::max(into->elevator_depth_max, add.elevator_depth_max);
  into->priority_jumps += add.priority_jumps;
  into->buffer_hits += add.buffer_hits;
  into->buffer_misses += add.buffer_misses;
  into->buffer_evictions += add.buffer_evictions;
  into->swizzle_ops += add.swizzle_ops;
  into->unswizzle_ops += add.unswizzle_ops;
  into->faults_injected += add.faults_injected;
  into->fault_retries += add.fault_retries;
  into->corruptions_detected += add.corruptions_detected;
  into->fault_fallbacks += add.fault_fallbacks;
  into->clusters_visited += add.clusters_visited;
  into->intra_cluster_hops += add.intra_cluster_hops;
  into->inter_cluster_hops += add.inter_cluster_hops;
  into->node_tests += add.node_tests;
  into->instances_created += add.instances_created;
  into->instances_full += add.instances_full;
  into->speculative_instances += add.speculative_instances;
  into->r_set_probes += add.r_set_probes;
  into->s_set_probes += add.s_set_probes;
  into->fallback_activations += add.fallback_activations;
}

std::string Metrics::ToString() const {
  char buf[2048];
  std::snprintf(
      buf, sizeof(buf),
      "disk: reads=%llu (seq=%llu) writes=%llu seek_pages=%llu "
      "async=%llu (reordered=%llu)\n"
      "sched: merged=%llu elevator_batches=%llu depth_sum=%llu "
      "depth_max=%llu priority_jumps=%llu\n"
      "buffer: hits=%llu misses=%llu evictions=%llu swizzle=%llu "
      "unswizzle=%llu\n"
      "faults: injected=%llu retries=%llu corruptions_detected=%llu "
      "fallbacks=%llu\n"
      "nav: clusters=%llu intra=%llu inter=%llu tests=%llu\n"
      "algebra: instances=%llu full=%llu speculative=%llu r_probes=%llu "
      "s_probes=%llu fallbacks=%llu",
      static_cast<unsigned long long>(disk_reads),
      static_cast<unsigned long long>(disk_seq_reads),
      static_cast<unsigned long long>(disk_writes),
      static_cast<unsigned long long>(disk_seek_pages),
      static_cast<unsigned long long>(async_requests),
      static_cast<unsigned long long>(async_reorderings),
      static_cast<unsigned long long>(requests_merged),
      static_cast<unsigned long long>(elevator_batches),
      static_cast<unsigned long long>(elevator_depth_sum),
      static_cast<unsigned long long>(elevator_depth_max),
      static_cast<unsigned long long>(priority_jumps),
      static_cast<unsigned long long>(buffer_hits),
      static_cast<unsigned long long>(buffer_misses),
      static_cast<unsigned long long>(buffer_evictions),
      static_cast<unsigned long long>(swizzle_ops),
      static_cast<unsigned long long>(unswizzle_ops),
      static_cast<unsigned long long>(faults_injected),
      static_cast<unsigned long long>(fault_retries),
      static_cast<unsigned long long>(corruptions_detected),
      static_cast<unsigned long long>(fault_fallbacks),
      static_cast<unsigned long long>(clusters_visited),
      static_cast<unsigned long long>(intra_cluster_hops),
      static_cast<unsigned long long>(inter_cluster_hops),
      static_cast<unsigned long long>(node_tests),
      static_cast<unsigned long long>(instances_created),
      static_cast<unsigned long long>(instances_full),
      static_cast<unsigned long long>(speculative_instances),
      static_cast<unsigned long long>(r_set_probes),
      static_cast<unsigned long long>(s_set_probes),
      static_cast<unsigned long long>(fallback_activations));
  return buf;
}

}  // namespace navpath
