// XAssembly / XAssembly^R: top of a path plan (Sec. 5.3.3, 5.4.5).
//
// Consumes the XStep chain's output and
//   * returns full path instances (deduplicated on the final result node
//     through R),
//   * forwards right-incomplete instances to the XSchedule operator as
//     clusters to visit (applying target() to the border end),
//   * stores left-incomplete (speculative) instances in S and runs the
//     reachability closure "if end_L(x) is reachable, end_R(x) is
//     reachable" whenever new ends enter R.
//
// Without left-incomplete input (non-speculative XSchedule plans) this is
// exactly XAssembly^R. When S outgrows its memory budget the plan reverts
// to fallback mode (Sec. 5.4.6): S is discarded, XStep operators navigate
// across borders themselves, and R keeps already-returned results from
// being produced again.
#ifndef NAVPATH_ALGEBRA_XASSEMBLY_H_
#define NAVPATH_ALGEBRA_XASSEMBLY_H_

#include <unordered_map>
#include <vector>

#include "algebra/operator.h"
#include "common/flat_set.h"

namespace navpath {

class XSchedule;  // work acceptor; may be null for XScan plans

struct XAssemblyOptions {
  /// |pi|: the number of steps of the location path.
  int path_length = 0;
  /// Maximum number of instances held in S before fallback (0: unlimited).
  std::size_t s_budget = 0;
  /// The I/O operator generates speculative seeds, so visited clusters
  /// need not be revisited for crossings already answered by S.
  bool speculative = false;
  /// Sec. 5.4.5.4: the path starts with a step that reaches every node
  /// from the root (e.g. a leading descendant step of an absolute path)
  /// *and* the plan is guaranteed to visit all clusters (XScan): ends at
  /// step 0 are implicitly reachable and need not be stored.
  bool first_step_reaches_all = false;
};

class XAssembly : public PathOperator {
 public:
  XAssembly(Database* db, PlanSharedState* shared, PathOperator* producer,
            XSchedule* schedule, const XAssemblyOptions& options)
      : db_(db),
        shared_(shared),
        producer_(producer),
        schedule_(schedule),
        options_(options) {}

  Status Open() override;
  Result<bool> Next(PathInstance* out) override;
  Status Close() override;

  std::size_t s_size() const { return s_size_; }

 private:
  /// Registers `inst.right` (already target()-resolved for borders) as
  /// reachable and cascades through S. `inst.left` rides along so that
  /// scheduled work items keep their provenance.
  Status Reach(const PathInstance& inst);
  /// Registers one instance; the S entries it releases go on worklist_.
  Status ReachOne(const PathInstance& item);

  Status HandleArrival(const PathInstance& y);
  void TriggerFallback();

  /// Applies target() to a right-incomplete end using the current cluster.
  PathEnd TargetOf(const PathEnd& right) const;

  Database* db_;
  PlanSharedState* shared_;
  PathOperator* producer_;
  XSchedule* schedule_;
  XAssemblyOptions options_;

  FlatSet<std::uint64_t> r_;  // from the database's table pool while open
  std::unordered_map<std::uint64_t, std::vector<PathInstance>> s_;
  std::size_t s_size_ = 0;
  // Full instances awaiting emission, FIFO from pending_head_; both reset
  // once drained, so the vector's capacity is reused.
  std::vector<PathInstance> pending_;
  std::size_t pending_head_ = 0;
  std::vector<PathInstance> worklist_;  // S cascades of Reach, reused
};

}  // namespace navpath

#endif  // NAVPATH_ALGEBRA_XASSEMBLY_H_
