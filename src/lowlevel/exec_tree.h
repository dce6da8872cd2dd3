#ifndef CHEF_LOWLEVEL_EXEC_TREE_H_
#define CHEF_LOWLEVEL_EXEC_TREE_H_

/// \file
/// The low-level symbolic execution tree.
///
/// Nodes are symbolic branch points encountered during concolic runs, in the
/// order a deterministic execution meets them (Figure 1 of the paper). Each
/// direction of a node is either unexplored, explored by some completed run,
/// pending as a registered alternate state, or proven infeasible. Alternate
/// states carry the bookkeeping CUPA needs: the forking low-level PC, the
/// static and dynamic high-level PC at the fork, and the fork weight.
///
/// Ownership model: the tree is driver-owned and not thread-safe. Every
/// mutation (Advance, the claim protocol, the hooks it fires) happens on
/// the engine's driver thread. Per-run traversal state lives in a Cursor
/// owned by the run's runtime; parallel exploration workers run guests on
/// private recording runtimes that only touch their own cursor (BeginRun
/// and AddConstraint leave the tree itself alone) and hand their logs to
/// the driver for a serial replay. A pending state is *leased* via
/// ClaimState (for one round in round mode, for one solve in the serial
/// loop); leased states are out of the pending pool and therefore excluded
/// from further selection until the driver either commits the run that
/// explores them (CompleteClaim), proves them infeasible (MarkInfeasible),
/// or hands them back (ReleaseClaim). A lease is just the state's id in
/// the in-flight set; claiming reads no clock.

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/attribution.h"
#include "solver/expr.h"

namespace chef::lowlevel {

/// Identifier of a pending alternate state.
using StateId = uint64_t;

/// A not-yet-explored branch direction, scheduled for exploration.
/// This is the paper's "symbolic execution state" from the point of view of
/// the search strategy.
struct AlternateState {
    StateId id = 0;
    /// Conjunction describing the alternate path (prefix + negated branch).
    std::vector<solver::ExprRef> path_condition;
    /// Position in the tree: node index and the direction to take there.
    uint32_t node = 0;
    bool direction = false;
    /// Low-level program counter of the forking branch site.
    uint64_t llpc = 0;
    /// Static high-level PC (value of the last log_pc) at fork time.
    uint64_t static_hlpc = 0;
    /// Dynamic high-level PC: the occurrence of static_hlpc in the unfolded
    /// high-level execution tree (node id assigned by the HL tracker).
    uint64_t dynamic_hlpc = 0;
    /// Opcode reported by the last log_pc before the fork.
    uint32_t hl_opcode = 0;
    /// Paper §3.4: states forked consecutively at the same low-level PC get
    /// geometrically decaying weights; the most recent fork has weight 1.
    double fork_weight = 1.0;
    /// Depth in the low-level tree (number of symbolic branches en route).
    uint32_t depth = 0;
};

/// Exploration status of one direction of a branch node.
enum class EdgeStatus : uint8_t {
    kUnknown,     ///< Never taken, no alternate registered.
    kExplored,    ///< Some completed run went this way.
    kRegistered,  ///< Alternate state pending in the strategy queue.
    kInfeasible,  ///< Solver proved the direction's path condition UNSAT.
};

/// High-level position of the run at a fork, recorded into the alternate
/// state registered there (filled by the runtime from the tracker's
/// write-back).
struct HlPosition {
    uint64_t static_hlpc = 0;
    uint64_t dynamic_hlpc = 0;
    uint32_t opcode = 0;
};

/// The concolic execution tree plus the pool of pending alternate states.
class ExecutionTree
{
  public:
    /// Per-run traversal state. Each run owns one cursor; the tree never
    /// stores per-run state.
    class Cursor
    {
      public:
        /// The path condition of the run so far.
        const std::vector<solver::ExprRef>& path_condition() const
        {
            return path_condition_;
        }

        /// Number of symbolic branches the run has passed.
        uint32_t depth() const { return depth_; }

      private:
        friend class ExecutionTree;

        int32_t node = 0;
        bool at_root = true;
        bool last_direction = false;
        std::vector<solver::ExprRef> path_condition_;
        uint32_t depth_ = 0;
    };

    ExecutionTree();

    /// Drops all nodes and pending states.
    void Reset();

    /// Resets \p cursor to the root for a new run. Touches only the
    /// cursor.
    void BeginRun(Cursor& cursor);

    /// Result of advancing a run cursor through a symbolic branch.
    struct AdvanceResult {
        /// Non-zero when a new alternate state was registered for the
        /// not-taken direction.
        StateId registered = 0;
    };

    /// Records that the run behind \p cursor took direction \p taken at a
    /// symbolic branch with the given site \p llpc and branch condition
    /// (already in taken-form, i.e. the constraint that holds on this run).
    /// The alternate's path condition is the cursor's prefix plus the
    /// negated constraint; \p hl stamps the alternate with the run's
    /// high-level position. A newly registered state is announced through
    /// the state-added hook once fully constructed, exactly once.
    AdvanceResult Advance(Cursor& cursor, uint64_t llpc, bool taken,
                          const solver::ExprRef& taken_constraint,
                          const solver::ExprRef& negated_constraint,
                          const HlPosition& hl);

    /// Adds an assumption to a run's path condition (not a branch; no
    /// forking). Touches only the cursor.
    void AddConstraint(Cursor& cursor, const solver::ExprRef& constraint)
    {
        cursor.path_condition_.push_back(constraint);
    }

    /// Removes and returns a pending state (strategy selected it).
    /// The state stays recorded as kRegistered in the tree until the caller
    /// reports the outcome via MarkInfeasible or a subsequent run exploring
    /// it.
    AlternateState TakePending(StateId id);

    // -- Claim/lease protocol ------------------------------------------------

    /// Leases pending state \p id (typically SearchStrategy::ClaimState's
    /// pick) to the caller: the state leaves the pending pool (firing the
    /// pending-removed hook) and is tracked as in flight. The leased state
    /// must be resolved with CompleteClaim, MarkInfeasible, or
    /// ReleaseClaim.
    AlternateState ClaimState(StateId id);

    /// Hands a leased state back untouched: re-inserts it into the pending
    /// pool and re-announces it through the state-added hook (so the
    /// strategy re-queues it).
    void ReleaseClaim(const AlternateState& state);

    /// Marks a leased state's run as committed (the exploring run advanced
    /// through its node, so the tree already records the direction as
    /// explored); drops the in-flight lease.
    void CompleteClaim(StateId id);

    /// Marks a previously taken or leased state's direction as infeasible.
    void MarkInfeasible(const AlternateState& state);

    /// Number of leased (claimed, not yet resolved) states.
    size_t states_in_flight() const { return in_flight_.size(); }

    /// Pending states dropped because a run explored their direction
    /// before the strategy picked them (Advance's stale-alternate path).
    /// Every registered state ends up exactly one of finalized, still
    /// pending, or overtaken.
    uint64_t states_overtaken() const { return states_overtaken_; }

    // -----------------------------------------------------------------------

    /// Looks up a pending state (for strategies). Null if absent. The
    /// pointer is invalidated by the next mutation.
    const AlternateState* FindPending(StateId id) const;

    /// All pending states (insertion order not guaranteed).
    const std::unordered_map<StateId, AlternateState>& pending() const
    {
        return pending_;
    }

    /// Multiplies the fork weight of a pending state (fork streak decay).
    void ScaleForkWeight(StateId id, double factor);

    size_t num_nodes() const { return nodes_.size(); }
    uint64_t total_registered() const { return next_state_id_ - 1; }

    /// Point-in-time frontier view (obs/attribution.h): pending count
    /// and depth histogram, node count, and the tree's mean branching
    /// factor. strategy_picks is left empty — the engine owns the
    /// strategy and fills it in.
    obs::FrontierSnapshot SnapshotFrontier() const;

    /// Observer invoked whenever a pending state disappears from the pool
    /// (selected by the strategy, overtaken by natural exploration, or
    /// proven infeasible). Used by search strategies for bookkeeping.
    void set_on_pending_removed(std::function<void(StateId)> hook)
    {
        on_pending_removed_ = std::move(hook);
    }

    /// Observer invoked when a state enters (or re-enters, after
    /// ReleaseClaim) the pending pool, fully constructed.
    void set_on_state_added(
        std::function<void(const AlternateState&)> hook)
    {
        on_state_added_ = std::move(hook);
    }

  private:
    struct Node {
        uint64_t llpc = 0;
        int32_t child[2] = {-1, -1};
        EdgeStatus status[2] = {EdgeStatus::kUnknown, EdgeStatus::kUnknown};
        StateId pending_id[2] = {0, 0};
    };

    std::vector<Node> nodes_;
    std::unordered_map<StateId, AlternateState> pending_;
    /// Leased states (claimed, not yet resolved).
    std::unordered_set<StateId> in_flight_;
    StateId next_state_id_ = 1;
    uint64_t states_overtaken_ = 0;
    std::function<void(StateId)> on_pending_removed_;
    std::function<void(const AlternateState&)> on_state_added_;
};

}  // namespace chef::lowlevel

#endif  // CHEF_LOWLEVEL_EXEC_TREE_H_
