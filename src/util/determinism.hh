/**
 * @file
 * Determinism ("trajectory") annotations for the bit-identity
 * contract.
 *
 * Every mode this repo ships — any-thread-count GEMM (DESIGN.md §9),
 * any-worker-count collectives (§13), S=0 pipelining (§12), out-of-
 * core and serve byte-identity (§14) — rests on one invariant: code
 * that defines the training trajectory is deterministic. Golden tests
 * enforce that invariant *dynamically*; this header is the static
 * half (DESIGN.md §15). Functions that define the trajectory are
 * marked CASCADE_TRAJECTORY, and the reachability rules of
 * `tools/lint_cascade.py` (every lint run; the `scan` preset / CI
 * lane adds the compilation database) walk the call graph from those
 * roots and flag, per rule:
 *
 *  - nondet-call          wall-clock, libc RNG, thread-id, PID reads
 *  - unordered-iteration  iteration over std::unordered_{map,set}
 *  - addr-order           ordered containers keyed on raw pointers
 *                         (iteration order = allocation order)
 *  - unordered-reduce     std::reduce / transform_reduce / OpenMP
 *                         reductions (unspecified float fold order)
 *
 * A finding is silenced only by CASCADE_NONDET_OK("reason") carrying
 * a written order-insensitivity argument — "why this cannot change
 * the trajectory", not "checker, be quiet". An empty reason silences
 * nothing and is itself reported wherever it appears. The waiver
 * policy mirrors tools/tsan.supp: every silence is justified in-line
 * where the next reader will see it.
 *
 * Both macros expand to nothing — zero codegen or layout difference;
 * the checker reads them lexically.
 *
 * What counts as trajectory-defining (the root set):
 *  - TgnnModel::stepForwardWithRng / advanceState — the forward pass
 *  - mergeShardResults / applyMergedUpdate — the sharded collective
 *  - TrainingSession::runInline / TrainingPipeline::runSegment — the
 *    two batch drivers, and through them every stage body
 *  - kernels::gemm / gemmAcc — the fixed-p-order parallel reductions
 *  - saveCheckpointRotated / saveModel — checkpoint serialization
 *  - ServeEngine::applyEvents — the serve snapshot writer
 *
 * Observability (src/obs/, util/timer.hh, util/logging.hh) is
 * explicitly OUTSIDE the contract: metrics, traces and logs may read
 * clocks and thread-ids because nothing they produce feeds losses,
 * gradients, or serialized state. The checker does not traverse
 * into those files.
 */

#ifndef CASCADE_UTIL_DETERMINISM_HH
#define CASCADE_UTIL_DETERMINISM_HH

/**
 * Root marker: this function defines the training / serving
 * trajectory. Place it on the declaration (or the definition, for
 * free functions) — the checker resolves roots by name, so marking
 * either site covers both. Everything reachable from a root
 * is held to the determinism rules above.
 */
#define CASCADE_TRAJECTORY

/**
 * Waiver: the flagged construct on this line (or the line directly
 * below) is order-insensitive, with the argument written in
 * `reason`. Usable at statement position ahead of a loop:
 *
 *     CASCADE_NONDET_OK("max over size_t is commutative")
 *     for (NodeId n : touched_) ...
 *
 * or on the same line as a declaration. An empty reason waives
 * nothing and is reported; `lint_cascade.py -v` prints each waived
 * finding with its reason, so a bogus justification is one run away
 * from review.
 */
#define CASCADE_NONDET_OK(reason)

#endif // CASCADE_UTIL_DETERMINISM_HH
