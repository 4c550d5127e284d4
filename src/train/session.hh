/**
 * @file
 * Staged training session: one batch executor, two drivers.
 *
 * TrainingSession makes the stages of one global batch explicit and
 * observable, and writes each stage body exactly once:
 *
 *   boundary   — Batcher::next under the Supervisor (batch-boundary
 *                decision; for Cascade this contains the Algorithm 3
 *                `lookup` sub-stage, recorded by the TG-Diffuser)
 *   model      — stepForward/stepBackward, or WorkerGroup::runBatch
 *                when sharded
 *   writeback  — the deferred memory write + message generation
 *   guard      — NaN injection, NumericGuard admission, rollback
 *                restore on a trip
 *   feedback   — device-model charge + Batcher::onBatchDone
 *                (SG-Filter + ABS refresh)
 *   commit     — cursor advance and counters, the consumed-prefix
 *                hint, the observer, the cadence snapshot (stage
 *                `checkpoint`) and crash injection
 *
 * plus a post-training `eval` stage. At `pipelineDepth == 0` the
 * inline driver (runInline) calls the bodies in order on the caller
 * thread; at depth >= 1 the threaded driver (train/pipeline.hh)
 * calls the same bodies from its boundary, model, update and writer
 * threads. Stage order, snapshot cadence and rollback therefore live
 * in one place, and degrading an overloaded pipeline means continuing
 * the same bodies at depth 0.
 *
 * Failure-prone stages run under a Supervisor (train/supervisor.hh):
 * the boundary decision and the checkpoint writes retry with
 * deterministic backoff, and when a retry budget exhausts the session
 * steps down a graceful-degradation ladder (Batcher::degradeOnce for
 * batching; a one-way "checkpointing disabled" mode for durability)
 * instead of dying — an epoch always completes. Every stage runs
 * under a trace span (epoch > batch > stage, chrome://tracing JSON
 * via obs::TraceRecorder) and records its seconds into a
 * `stage.<name>.seconds` histogram in the session's MetricsRegistry;
 * the TrainReport is assembled *from* the registry afterwards instead
 * of being mutated inline.
 *
 * The decomposition is behavior-preserving: the inline driver's stage
 * order replicates the seed trainer exactly, so per-batch loss
 * sequences and batch boundaries are bit-identical (guarded by the
 * golden-trajectory test) and checkpoint/resume trajectories are
 * unchanged.
 */

#ifndef CASCADE_TRAIN_SESSION_HH
#define CASCADE_TRAIN_SESSION_HH

#include <functional>
#include <memory>
#include <string>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "train/checkpoint.hh"
#include "train/supervisor.hh"
#include "train/trainer.hh"
#include "util/determinism.hh"
#include "util/timer.hh"

namespace cascade {

class TrainingPipeline;
class WorkerGroup;

/** One finished batch, as seen by observers. */
struct BatchRecord
{
    uint64_t globalBatch = 0; ///< index across epochs and rollbacks
    size_t epoch = 0;
    size_t st = 0;            ///< first event (inclusive)
    size_t ed = 0;            ///< one past the last event
    double loss = 0.0;
    size_t numEvents = 0;
    /**
     * How many batches stale the node memory was when this batch's
     * model stage ran (0 in the synchronous loop and at S=0; bounded
     * by --staleness-bound in the pipeline; train/pipeline.hh).
     */
    size_t memStaleness = 0;
};

/** Staged, observable training loop over one (model, batcher) pair. */
class TrainingSession
{
  public:
    /**
     * Wire a session; nothing runs until run(). All references must
     * outlive the session. `data` may be any EventSource — a resident
     * vector or an mmap'd event log (out-of-core training; the
     * session hints consumed prefixes so the kernel can drop trained
     * pages). `device`, `metrics` and `trace` may be null: the
     * session then uses private instances (reachable via
     * metrics()/trace() afterwards).
     */
    TrainingSession(TgnnModel &model, const EventSource &data,
                    const TemporalAdjacency &adj, size_t train_end,
                    Batcher &batcher, const TrainOptions &options,
                    DeviceModel *device = nullptr,
                    obs::MetricsRegistry *metrics = nullptr,
                    obs::TraceRecorder *trace = nullptr);

    /**
     * Unbinds the instruments the constructor bound into the
     * registry. Model, batcher and device routinely outlive the
     * session (and, when owned, its registry) — e.g. evalLoss after
     * training — so they must not be left holding dangling
     * instrument pointers.
     */
    ~TrainingSession();

    TrainingSession(const TrainingSession &) = delete;
    TrainingSession &operator=(const TrainingSession &) = delete;

    /**
     * Called after every admitted batch (golden-trajectory tests,
     * live progress UIs, future pipeline schedulers). Rolled-back
     * batches do not reach the observer, mirroring how they
     * contribute nothing to the run.
     */
    void
    setBatchObserver(std::function<void(const BatchRecord &)> observer)
    {
        observer_ = std::move(observer);
    }

    /** Execute the full run (or resume); at most once per session. */
    TrainReport run();

    /** The session's metrics registry (bound into every component). */
    obs::MetricsRegistry &metrics() { return *metrics_; }
    const obs::MetricsRegistry &metrics() const { return *metrics_; }

    /** The session's trace recorder (one span per stage). */
    obs::TraceRecorder &trace() { return *trace_; }
    const obs::TraceRecorder &trace() const { return *trace_; }

  private:
    /** The threaded driver calls the stage bodies below. */
    friend class TrainingPipeline;

    /** How a driver's pass over the epoch's remaining batches ended. */
    enum class BatchOutcome
    {
        Completed, ///< cursor reached the epoch's train end
        RolledBack,///< guard trip; state restored to the last snapshot
        Crashed,   ///< injected crash; run ends interrupted
        Overloaded ///< persistent pipeline stalls; continue at depth 0
    };

    /**
     * One stage execution: a trace span plus a sample in the stage's
     * seconds histogram, both closed on scope exit.
     */
    class StageScope
    {
      public:
        StageScope(obs::Histogram &hist, obs::TraceRecorder &trace,
                   const char *name)
            : hist_(hist), span_(trace.span(name, "stage"))
        {}

        ~StageScope()
        {
            span_.end();
            hist_.record(timer_.seconds());
        }

        StageScope(const StageScope &) = delete;
        StageScope &operator=(const StageScope &) = delete;

      private:
        obs::Histogram &hist_;
        Timer timer_;
        obs::TraceRecorder::Span span_;
    };

    /** One global batch on its way through the stage bodies. */
    struct Batch
    {
        uint64_t globalBatch = 0;
        size_t batchIndex = 0; ///< index within the epoch
        size_t st = 0;
        size_t ed = 0;
        uint64_t seg = 0;        ///< pipeline segment ordinal
        size_t memStaleness = 0; ///< batches of unapplied writeback
        StepResult result;
        /** Deferred memory write, until writebackStage applies it. */
        TgnnModel::PendingWriteback writeback;
    };

    /** Stage: resume from disk or capture the pristine snapshot. */
    void initOrResume();

    // --- stage bodies: written once, called by both drivers --------

    /**
     * Stage `boundary`: Batcher::next under the Supervisor's retry
     * budget, stepping the batcher down its degradation ladder when a
     * budget exhausts. Returns the checked batch end.
     */
    size_t boundaryStage(size_t st);

    /**
     * Stage `model`: forward, backward and optimizer step — or the
     * whole sharded step via WorkerGroup::runBatch. Inline, the
     * writeback follows backward, in TgnnModel::step's order; under
     * the pipeline the forward runs under its memory lock and the
     * writeback is handed to the update worker, overlapping backward.
     */
    void modelStage(Batch &b);

    /**
     * Apply the deferred memory writeback and message generation,
     * filling the result's updatedNodes/memCosine. `stamp` marks the
     * written rows with a pipeline batch ordinal (0 inline).
     */
    void writebackStage(Batch &b, uint64_t stamp);

    /** Stage `feedback`: device charge + Batcher::onBatchDone. */
    void feedbackStage(const Batch &b);

    /**
     * NaN injection, then stage `guard`: numeric admission. False is
     * a trip; the caller quiesces and calls rollback(). A guard whose
     * retry budget is exhausted is fatal.
     */
    bool admitStage(Batch &b);

    /** Restore the last good snapshot after a guard trip. */
    void rollback();

    /**
     * Commit an admitted batch: cursor advance and train.* counters,
     * model.* step metrics, the consumed-prefix hint, the observer,
     * the cadence snapshot (stage `checkpoint`) and crash injection.
     * Returns false when an injected crash ends the run.
     */
    bool commitStage(const Batch &b);

    /**
     * The depth-0 driver: the stage bodies in order on the caller
     * thread, from the cursor to the epoch's train end. No thread,
     * queue or lock.
     */
    CASCADE_TRAJECTORY
    BatchOutcome runInline();

    /**
     * Supervised checkpoint write (cadence and final). Retries under
     * the RetryPolicy; when the budget exhausts, checkpointing is
     * disabled for the rest of the run (one-way, `checkpoint.skipped`
     * counts subsequent cadence points) — durability degrades, the
     * training run itself never dies on a full disk.
     */
    void writeCheckpoint(const std::string &payload, const char *what);

    /** Count a degradation-ladder transition (metric + trace + log). */
    void recordDegradation(const std::string &mode);

    /** Close the epoch's accounting (EpochStats). */
    void finishEpoch(double epoch_wall, double dev_before);

    /** Stage `eval` + TrainReport assembly from the registry. */
    void assembleReport();

    // --- wiring -----------------------------------------------------
    TgnnModel &model_;
    const EventSource &data_;
    const TemporalAdjacency &adj_;
    size_t trainEnd_;
    Batcher &batcher_;
    TrainOptions options_;
    DeviceModel *device_;

    std::unique_ptr<DeviceModel> ownedDevice_;
    std::unique_ptr<obs::MetricsRegistry> ownedMetrics_;
    std::unique_ptr<obs::TraceRecorder> ownedTrace_;
    obs::MetricsRegistry *metrics_;
    obs::TraceRecorder *trace_;

    // --- run state --------------------------------------------------
    NumericGuard guard_;
    std::unique_ptr<Supervisor> supervisor_;
    /** Sharded multi-worker runtime; null in the unsharded loop. */
    std::unique_ptr<WorkerGroup> workerGroup_;
    TrainerCursor cur_;
    std::string lastGood_; ///< in-memory rollback target
    TrainReport report_;
    std::function<void(const BatchRecord &)> observer_;
    bool ran_ = false;
    /** One-way degradation: checkpoint writes kept failing. */
    bool checkpointingDisabled_ = false;
    /** Pipeline depth in effect; an overload drops it to 0 (one-way). */
    size_t depth_ = 0;
    /** The threaded driver while one of its segments runs. */
    TrainingPipeline *pipeline_ = nullptr;
};

} // namespace cascade

#endif // CASCADE_TRAIN_SESSION_HH
