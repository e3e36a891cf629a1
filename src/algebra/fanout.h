// Cross-query fan-out of one producer's partial-instance stream.
//
// The paper's Sec. 7 outlook ("multiple location paths with a single
// I/O-performing operator") extends across queries: when concurrent
// workload queries share a path prefix, ONE producer plan evaluates the
// prefix and every query consumes the resulting partial path instances
// from a bounded stream buffer, then extends them with its own residual
// steps. FanOut is the coordinator that owns the buffer and drives the
// producer; FanOutReader is the per-consumer PathOperator endpoint that
// plans are built on.
//
// Buffering is ref-counted by consumer cursors: the buffer holds only the
// window between the slowest and fastest live consumer, trimmed as the
// laggard catches up. When the window would exceed the instance budget,
// the most-lagging consumer is detached (spill-to-recompute): it stops
// receiving shared instances and its query re-plans privately, relying on
// result-level duplicate elimination for exactly-once semantics. Detaching
// the laggard instead of stalling the producer keeps the fast consumers
// streaming and bounds memory strictly.
//
// The producer participates in cooperative scheduling through the pulling
// consumer: the consumer's yield_on_block grant is forwarded to the
// producer plan for the duration of the pull, and a producer yield (or
// block) is accounted back onto the consumer's shared state, so the
// workload scheduler classifies and reschedules consumers exactly like
// private plans.
#ifndef NAVPATH_ALGEBRA_FANOUT_H_
#define NAVPATH_ALGEBRA_FANOUT_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "algebra/operator.h"
#include "common/flat_set.h"

namespace navpath {

struct FanOutOptions {
  /// Stream-buffer budget in instances (>= 1). Exceeding it detaches the
  /// most-lagging live consumer rather than growing the buffer.
  std::size_t max_buffered = 4096;
};

class FanOut {
 public:
  /// `producer_root` / `producer_shared` belong to the producer plan
  /// (owned by the caller, outliving the FanOut). The producer must
  /// deliver prefix instances with complete right ends.
  FanOut(Database* db, PathOperator* producer_root,
         PlanSharedState* producer_shared, const FanOutOptions& options);

  FanOut(const FanOut&) = delete;
  FanOut& operator=(const FanOut&) = delete;

  /// Registers a consumer before execution starts; returns its slot.
  std::size_t AddConsumer();

  /// Opens the producer on the first consumer open (idempotent per slot).
  Status OpenFor(std::size_t slot);

  /// Serves the next instance for `slot`: buffered instances first, then
  /// by advancing the producer. Returns false when the slot is detached,
  /// the producer is exhausted, or the producer yielded (then
  /// `consumer_shared->yielded` is set and the stream is NOT exhausted).
  Result<bool> PullFor(std::size_t slot, PathInstance* out,
                       PlanSharedState* consumer_shared);

  /// Releases `slot`; the last release closes the producer. Also used by
  /// the workload executor to abandon slots that detached before their
  /// query ever started.
  Status CloseFor(std::size_t slot);

  bool detached(std::size_t slot) const { return consumers_[slot].detached; }
  bool producer_done() const { return producer_done_; }
  std::size_t consumers() const { return consumers_.size(); }
  std::size_t buffered() const { return buffer_.size(); }

  // Measurement-side stream statistics (transferred into the workload's
  // share.* registry by the executor).
  std::uint64_t producer_pulls() const { return producer_pulls_; }
  std::uint64_t consumer_pulls() const { return consumer_pulls_; }
  std::uint64_t instances_streamed() const { return next_index_; }
  std::uint64_t dedup_hits() const { return dedup_hits_; }
  std::uint64_t spills() const { return spills_; }
  std::uint64_t max_buffered_seen() const { return max_buffered_seen_; }

 private:
  struct Consumer {
    std::uint64_t cursor = 0;  // absolute index of the next instance
    bool open = false;
    bool closed = false;
    bool detached = false;
  };

  /// Drops buffered instances every live consumer has already consumed.
  void Trim();
  /// Detaches the most-lagging live consumer (smallest cursor, ties to
  /// the smallest slot) to honor the buffer budget.
  void DetachLaggard();

  Database* db_;
  PathOperator* producer_root_;
  PlanSharedState* producer_shared_;
  FanOutOptions options_;

  std::deque<PathInstance> buffer_;
  std::uint64_t base_ = 0;        // absolute index of buffer_.front()
  std::uint64_t next_index_ = 0;  // absolute index of the next append
  /// Right-end keys already streamed: the producer may derive the same
  /// prefix instance along several navigations; consumers must see each
  /// distinct right end once.
  FlatSet<std::uint64_t> emitted_;

  std::vector<Consumer> consumers_;
  bool producer_open_ = false;
  bool producer_done_ = false;
  bool producer_closed_ = false;

  std::uint64_t producer_pulls_ = 0;
  std::uint64_t consumer_pulls_ = 0;
  std::uint64_t dedup_hits_ = 0;
  std::uint64_t spills_ = 0;
  std::uint64_t max_buffered_seen_ = 0;
};

/// The per-consumer endpoint: a PathOperator over the shared stream,
/// placed where a private plan would have its I/O operator. Residual
/// UnnestMap steps stack on top of it.
class FanOutReader : public PathOperator {
 public:
  FanOutReader(FanOut* fanout, std::size_t slot,
               PlanSharedState* consumer_shared)
      : fanout_(fanout), slot_(slot), shared_(consumer_shared) {}

  Status Open() override { return fanout_->OpenFor(slot_); }
  Result<bool> Next(PathInstance* out) override {
    return fanout_->PullFor(slot_, out, shared_);
  }
  Status Close() override { return fanout_->CloseFor(slot_); }

 private:
  FanOut* fanout_;
  std::size_t slot_;
  PlanSharedState* shared_;
};

}  // namespace navpath

#endif  // NAVPATH_ALGEBRA_FANOUT_H_
