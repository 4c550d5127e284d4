/**
 * @file
 * The threaded batch driver (DESIGN.md §12).
 *
 * TrainingSession (train/session.hh) writes each stage body once:
 * boundary, model, writeback, feedback, and the guard/commit pair. At
 * `pipelineDepth == 0` its inline driver calls them in order on the
 * caller thread. At depth >= 1 this driver calls the same bodies from
 * four threads, overlapping them across *batches* behind bounded
 * queues, MSPipe-style, with the memory-update dependency relaxed by
 * an explicit bounded staleness S:
 *
 *   boundary worker   applies admitted batches' feedback
 *                     (feedbackStage), runs boundaryStage and pushes
 *                     planned batches into the plan queue (capacity =
 *                     depth)
 *   model thread      (the caller) pops plans and runs modelStage —
 *                     whose forward hands the deferred writeback to
 *                     the update worker — then admitStage and
 *                     commitStage, which owns the cursor, the observer
 *                     and cadence snapshots
 *   update worker     runs writebackStage in batch order, then
 *                     forwards admitted batches to the boundary
 *                     worker's feedback
 *   checkpoint writer drains cadence snapshots to disk through the
 *                     session's supervised write path
 *
 * Dependency schedule (segment-local batch ordinals j):
 *   - model(j) may start only when writebacks through j-S have been
 *     applied: node memory is read at most S batches stale. S=0
 *     forces writeback(j-1) before forward(j) — the inline data flow,
 *     hence bit-identical trajectories (the overlap that remains is
 *     writeback(j) against backward(j), which touch disjoint state,
 *     plus asynchronous checkpoint writes).
 *   - boundary(j) may run once feedback through j-S has been applied
 *     to the batcher, and never crosses an unfinished checkpoint
 *     cadence point (the drain-then-snapshot barrier: a snapshot is
 *     encoded only with zero batches in flight, so every checkpoint
 *     byte-matches the inline run's).
 *
 * Failure handling lives in the shared bodies: boundary failures walk
 * the batcher degradation ladder, and a guard trip makes this driver
 * quiesce before TrainingSession::rollback. Injected crashes drain
 * then stop. A model thread stalled past the watchdog deadline for
 * consecutive batches ends the segment Overloaded, and the session
 * continues the same bodies at depth 0.
 */

#ifndef CASCADE_TRAIN_PIPELINE_HH
#define CASCADE_TRAIN_PIPELINE_HH

#include <memory>
#include <string>

#include "train/session.hh"
#include "util/determinism.hh"
#include "util/thread_annotations.hh"

namespace cascade {

/**
 * One pipelined epoch segment: from the session's cursor to its train
 * end. Construct per attempt (cheap — three threads for a seconds-long
 * segment); the session re-enters with a fresh instance after a
 * rollback. While it exists, the session's stage bodies route their
 * pipeline hooks to it.
 */
class TrainingPipeline
{
  public:
    explicit TrainingPipeline(TrainingSession &session);
    ~TrainingPipeline();

    TrainingPipeline(const TrainingPipeline &) = delete;
    TrainingPipeline &operator=(const TrainingPipeline &) = delete;

    /** Run until epoch end / rollback / crash / overload. */
    CASCADE_TRAJECTORY
    TrainingSession::BatchOutcome runSegment();

    /** Consecutive over-deadline batches that trigger Overloaded. */
    static constexpr int kOverloadStrikes = 3;

  private:
    /** The stage bodies call the hooks below while a segment runs. */
    friend class TrainingSession;
    using Batch = TrainingSession::Batch;

    /** Serializes the forward's memory reads against writebacks. */
    AnnotatedMutex &memoryLock();

    /** Hand the forward's deferred writeback to the update worker. */
    void handoff(const Batch &b, TgnnModel::Forward &f);

    /** Drain-then-snapshot barrier: wait until `b` fully landed. */
    void drainThrough(const Batch &b);

    /** Queue a cadence snapshot for the checkpoint writer. */
    void queueWrite(const std::string &payload);

    struct State;

    TrainingSession &s_;
    std::unique_ptr<State> st_;
};

} // namespace cascade

#endif // CASCADE_TRAIN_PIPELINE_HH
