#include "train/session.hh"

#include <algorithm>

#include "tensor/kernels.hh"
#include "train/pipeline.hh"
#include "train/shard.hh"
#include "util/binio.hh"
#include "util/fault.hh"
#include "util/logging.hh"
#include "util/timer.hh"

namespace cascade {

TrainingSession::TrainingSession(TgnnModel &model,
                                 const EventSource &data,
                                 const TemporalAdjacency &adj,
                                 size_t train_end, Batcher &batcher,
                                 const TrainOptions &options,
                                 DeviceModel *device,
                                 obs::MetricsRegistry *metrics,
                                 obs::TraceRecorder *trace)
    : model_(model), data_(data), adj_(adj), trainEnd_(train_end),
      batcher_(batcher), options_(options), device_(device),
      guard_(options.guard), depth_(options.pipelineDepth)
{
    CASCADE_CHECK(trainEnd_ > 0 && trainEnd_ <= data_.size(),
                  "TrainingSession: bad train range");
    if (!device_) {
        ownedDevice_ = std::make_unique<DeviceModel>();
        device_ = ownedDevice_.get();
    }
    if (metrics) {
        metrics_ = metrics;
    } else {
        ownedMetrics_ = std::make_unique<obs::MetricsRegistry>();
        metrics_ = ownedMetrics_.get();
    }
    if (trace) {
        trace_ = trace;
    } else {
        ownedTrace_ = std::make_unique<obs::TraceRecorder>();
        trace_ = ownedTrace_.get();
    }

    // Components publish their bespoke accumulators as named
    // instruments; their accessors stay views over the same numbers.
    batcher_.bindMetrics(*metrics_);
    guard_.bindMetrics(*metrics_);
    device_->bindMetrics(*metrics_);
    model_.bindMetrics(*metrics_);
    kernels::bindMetrics(*metrics_);

    supervisor_ = std::make_unique<Supervisor>(options_.supervisor,
                                               *metrics_, trace_);

    CASCADE_CHECK(options_.workers >= 1,
                  "TrainingSession: --workers must be >= 1");
    const bool sharded = options_.workers > 1 ||
                         options_.workerProcs || options_.shards > 0;
    if (sharded) {
        // The pipeline reorders the very stages the worker group
        // replaces; the two overlap schemes do not compose.
        CASCADE_CHECK(options_.pipelineDepth == 0,
                      "TrainingSession: sharded workers and the "
                      "pipeline are mutually exclusive");
        WorkerGroupOptions wo;
        wo.workers = options_.workers;
        wo.shards = options_.shards;
        wo.processes = options_.workerProcs;
        wo.seed = model_.seed();
        wo.heartbeatMs = options_.workerHeartbeatMs;
        if (!options_.checkpointPath.empty())
            wo.pidFile = options_.checkpointPath + ".workers";
        workerGroup_ = std::make_unique<WorkerGroup>(
            model_, data_, adj_, wo, metrics_);
        workerGroup_->setOnDegrade([this](const std::string &mode) {
            recordDegradation(mode);
            report_.degradedMode = mode;
        });
    }
}

TrainingSession::~TrainingSession()
{
    // The bound components may outlive this session's (possibly
    // owned) registry; drop their instrument pointers so later use
    // (evalLoss, another session) never touches freed memory.
    kernels::unbindMetrics();
    model_.unbindMetrics();
    batcher_.unbindMetrics();
    guard_.unbindMetrics();
    device_->unbindMetrics();
}

void
TrainingSession::initOrResume()
{
    Timer t;
    auto span = trace_->span("init", "session");

    // A leftover write-window marker means the previous process died
    // (SIGKILL, power loss) inside a checkpoint commit. The rotation
    // protocol guarantees a loadable generation regardless; the
    // marker is evidence for the chaos harness and the operator.
    if (!options_.checkpointPath.empty()) {
        const std::string marker =
            checkpointMarkerPath(options_.checkpointPath);
        if (fileExists(marker)) {
            CASCADE_LOG("stale checkpoint write marker %s: previous "
                        "process died inside the write window",
                        marker.c_str());
            metrics_->counter("checkpoint.dirty_marker").add(1);
            if (!removeFileIfExists(marker))
                CASCADE_LOG("could not remove %s", marker.c_str());
        }
    }

    if (options_.resume) {
        const std::string &path = options_.resumePath.empty()
            ? options_.checkpointPath : options_.resumePath;
        CASCADE_CHECK(!path.empty(),
                      "TrainingSession: resume requested without a "
                      "checkpoint path");
        const ResumeScan scan = resumeFromNewestValid(
            path, options_.checkpointKeep, model_, batcher_, cur_,
            metrics_);
        if (scan.outcome == ResumeScan::Outcome::NoCheckpoint &&
            options_.resumeIfPossible) {
            CASCADE_LOG("no checkpoint at %s yet; starting fresh",
                        path.c_str());
            lastGood_ = encodeCheckpoint(model_, batcher_, cur_);
        } else if (scan.outcome != ResumeScan::Outcome::Resumed) {
            CASCADE_LOG("cannot resume from %s (%s)", path.c_str(),
                        scan.outcome ==
                                ResumeScan::Outcome::NoCheckpoint
                            ? "no generation file exists"
                            : "every generation is corrupt or "
                              "mismatched");
            CASCADE_FATAL("checkpoint file missing or corrupt");
        } else {
            CASCADE_LOG("resumed at epoch %llu batch %llu (event "
                        "%llu, generation %zu)",
                        (unsigned long long)cur_.epoch,
                        (unsigned long long)cur_.batchIndex,
                        (unsigned long long)cur_.st, scan.generation);
            // The degradation ladder's durability rung: the newest
            // generation was unusable and an older one carried the
            // run — or the run recovered from the staged artifact of
            // an interrupted rotation. Loudly accounted, never fatal.
            if (scan.generation > 0 || scan.corruptSkipped > 0 ||
                scan.stagedRecovery) {
                recordDegradation("checkpoint-fallback");
            }
            lastGood_ = encodeCheckpoint(model_, batcher_, cur_);
            report_.resumed = true;
            report_.resumedGeneration = scan.generation;
            report_.corruptSkippedOnResume = scan.corruptSkipped;
            metrics_->counter("session.resumes").add(1);
        }
    } else {
        // Rollback target for trips before the first cadence
        // snapshot: the pristine start-of-run state.
        lastGood_ = encodeCheckpoint(model_, batcher_, cur_);
    }
    span.end();
    metrics_->gauge("session.init_seconds").set(t.seconds());
}

size_t
TrainingSession::boundaryStage(size_t st)
{
    // For Cascade policies the TG-Diffuser records its Algorithm 3
    // `lookup` sub-stage into `stage.lookup.seconds` from inside this
    // span. A failing dependency-table build (the pipelined chunk
    // prefetch surfaces its exception here) is what gets retried, and
    // each ladder step starts a fresh retry budget.
    size_t ed = 0;
    {
        StageScope stage(metrics_->histogram("stage.boundary.seconds"),
                         *trace_, "boundary");
        auto wd = supervisor_->watch("boundary");
        while (!supervisor_->runSupervised("boundary", [&] {
                   ed = batcher_.next(st);
                   return true;
               })) {
            const std::string mode = batcher_.degradeOnce();
            if (mode.empty()) {
                CASCADE_LOG("boundary stage still failing with the "
                            "degradation ladder exhausted: %s",
                            supervisor_->lastError().c_str());
                CASCADE_FATAL("batch-boundary stage failed beyond "
                              "the degradation ladder");
            }
            recordDegradation(mode);
            report_.degradedMode = mode;
        }
    }
    CASCADE_CHECK(ed > st && ed <= trainEnd_,
                  "batcher returned a bad range");
    return ed;
}

void
TrainingSession::modelStage(Batch &b)
{
    // Watchdog only: a retry here would repeat a state-mutating step,
    // so slow batches are counted (deadline misses), never re-run.
    StageScope stage(metrics_->histogram("stage.model.seconds"),
                     *trace_, "model");
    auto wd = supervisor_->watch("model");
    if (workerGroup_) {
        b.result = workerGroup_->runBatch(b.globalBatch, b.st, b.ed);
        return;
    }
    TgnnModel::Forward f;
    if (pipeline_) {
        {
            LockGuard mem(pipeline_->memoryLock());
            f = model_.stepForward(data_, adj_, b.st, b.ed);
        }
        pipeline_->handoff(b, f);
        model_.stepBackward(f);
        b.result = std::move(f.result);
        return;
    }
    f = model_.stepForward(data_, adj_, b.st, b.ed);
    model_.stepBackward(f);
    b.result = std::move(f.result);
    b.writeback = std::move(f.writeback);
    writebackStage(b, 0);
}

void
TrainingSession::writebackStage(Batch &b, uint64_t stamp)
{
    if (!b.writeback.active)
        return;
    b.result.memCosine = model_.applyWriteback(data_, b.writeback, stamp);
    b.result.updatedNodes = std::move(b.writeback.nodes);
}

void
TrainingSession::feedbackStage(const Batch &b)
{
    // The policy's runtime feedback: SG-Filter flags, ABS loss
    // schedule.
    StageScope stage(metrics_->histogram("stage.feedback.seconds"),
                     *trace_, "feedback");
    const StepResult &r = b.result;
    device_->charge(r.numEvents, r.workRows, r.sampledNeighbors);

    BatchFeedback fb;
    fb.batchIndex = b.batchIndex;
    fb.st = b.st;
    fb.ed = b.ed;
    fb.loss = r.loss;
    fb.updatedNodes = &r.updatedNodes;
    fb.memCosine = &r.memCosine;
    batcher_.onBatchDone(fb);
}

bool
TrainingSession::admitStage(Batch &b)
{
    StepResult &r = b.result;
    if (fault::maybeInjectNan(b.globalBatch, r.loss)) {
        CASCADE_LOG("fault injection: NaN loss at batch %llu",
                    (unsigned long long)b.globalBatch);
    }
    StageScope stage(metrics_->histogram("stage.guard.seconds"),
                     *trace_, "guard");
    if (guard_.admit(r.loss, r.gradNorm))
        return true;
    CASCADE_LOG("numeric guard tripped at batch %llu: %s",
                (unsigned long long)b.globalBatch,
                guard_.lastReason().c_str());
    if (guard_.exhausted()) {
        CASCADE_FATAL("numeric guard: retry budget exhausted; training "
                      "keeps diverging after rollbacks");
    }
    return false;
}

void
TrainingSession::rollback()
{
    // The tripped batch contributes nothing: no device charge, no
    // feedback, no loss accounting.
    CASCADE_CHECK(decodeCheckpoint(lastGood_, model_, batcher_, cur_),
                  "rollback snapshot failed to apply");
    batcher_.onNumericRollback();
    // Replicas only ever advance via the per-batch merged updates; an
    // out-of-band master restore must be rebroadcast or they silently
    // diverge.
    if (workerGroup_)
        workerGroup_->resyncReplicas();
    metrics_->counter("train.rollbacks").add(1);
    CASCADE_LOG("rolled back to epoch %llu batch %llu",
                (unsigned long long)cur_.epoch,
                (unsigned long long)cur_.batchIndex);
}

bool
TrainingSession::commitStage(const Batch &b)
{
    const StepResult &r = b.result;
    cur_.lossSum += r.loss * r.numEvents;
    cur_.epochEvents += r.numEvents;
    cur_.totalEvents += r.numEvents;
    ++cur_.batchIndex;
    ++cur_.totalBatches;
    ++cur_.globalBatch;
    cur_.st = b.ed;
    metrics_->counter("train.batches").add(1);
    metrics_->counter("train.events").add(r.numEvents);
    metrics_->histogram("train.batch_size")
        .record(static_cast<double>(r.numEvents));
    model_.recordStepMetrics(r);
    // Out-of-core: the trained prefix is no longer hot (neighbor
    // sampling re-faults cold pages on demand), so an mmap-backed
    // source may drop it and bound resident memory. Advisory no-op
    // for resident sources.
    data_.hintConsumed(static_cast<EventIdx>(b.ed));

    if (observer_) {
        BatchRecord rec;
        rec.globalBatch = b.globalBatch;
        rec.epoch = static_cast<size_t>(cur_.epoch);
        rec.st = b.st;
        rec.ed = b.ed;
        rec.loss = r.loss;
        rec.numEvents = r.numEvents;
        rec.memStaleness = b.memStaleness;
        observer_(rec);
    }

    // Stage `checkpoint`: cadence snapshot, also the rollback grain.
    // The in-memory snapshot is always taken — rollback must keep
    // working even when the on-disk write path has been degraded.
    // Under the pipeline every in-flight batch lands first (drain-
    // then-snapshot), so the payload byte-matches the inline run's,
    // and the disk write goes to the writer thread.
    if (options_.checkpointEvery != 0 &&
        cur_.globalBatch % options_.checkpointEvery == 0) {
        StageScope stage(metrics_->histogram("stage.checkpoint.seconds"),
                         *trace_, "checkpoint");
        if (pipeline_)
            pipeline_->drainThrough(b);
        lastGood_ = encodeCheckpoint(model_, batcher_, cur_);
        metrics_->counter("checkpoint.snapshots").add(1);
        if (pipeline_)
            pipeline_->queueWrite(lastGood_);
        else
            writeCheckpoint(lastGood_, "checkpoint");
    }

    if (fault::crashAfter(b.globalBatch)) {
        CASCADE_LOG("fault injection: simulated crash after batch %llu",
                    (unsigned long long)b.globalBatch);
        report_.interrupted = true;
        return false;
    }
    return true;
}

TrainingSession::BatchOutcome
TrainingSession::runInline()
{
    while (cur_.st < trainEnd_) {
        auto batch_span = trace_->span("batch", "batch");
        Batch b;
        b.globalBatch = cur_.globalBatch;
        b.batchIndex = static_cast<size_t>(cur_.batchIndex);
        b.st = static_cast<size_t>(cur_.st);
        b.ed = boundaryStage(b.st);
        modelStage(b);
        if (!admitStage(b)) {
            rollback();
            return BatchOutcome::RolledBack;
        }
        feedbackStage(b);
        if (!commitStage(b))
            return BatchOutcome::Crashed;
    }
    return BatchOutcome::Completed;
}

void
TrainingSession::writeCheckpoint(const std::string &payload,
                                 const char *what)
{
    if (options_.checkpointPath.empty())
        return;
    if (checkpointingDisabled_) {
        metrics_->counter("checkpoint.skipped").add(1);
        return;
    }
    // Write-window marker: present exactly while the commit (and any
    // injected checkpoint-stage latency) is in flight. A process
    // killed inside this window leaves the marker behind — the chaos
    // harness uses that to prove its kills landed mid-write, and the
    // next launch logs/counts the dirty marker.
    const std::string marker =
        checkpointMarkerPath(options_.checkpointPath);
    if (!touchFile(marker))
        CASCADE_LOG("cannot create write marker %s", marker.c_str());
    auto wd = supervisor_->watch("checkpoint");
    const bool ok = supervisor_->runSupervised("checkpoint", [&] {
        return saveCheckpointRotated(options_.checkpointPath, payload,
                                     options_.checkpointKeep,
                                     metrics_);
    });
    if (!removeFileIfExists(marker))
        CASCADE_LOG("cannot remove write marker %s", marker.c_str());
    if (!ok) {
        // Checkpointing is best-effort durability; a persistently
        // full disk must not kill a healthy run. One-way: later
        // cadence points skip straight to `checkpoint.skipped`.
        checkpointingDisabled_ = true;
        report_.checkpointingDisabled = true;
        recordDegradation("checkpointing-disabled");
        CASCADE_LOG("%s write to %s kept failing; on-disk "
                    "checkpointing disabled, training continues",
                    what, options_.checkpointPath.c_str());
    }
}

void
TrainingSession::recordDegradation(const std::string &mode)
{
    metrics_->counter("degrade.transitions").add(1);
    trace_->span("degrade-" + mode, "supervisor").end();
    CASCADE_LOG("degradation ladder: entered '%s' mode",
                mode.c_str());
}

void
TrainingSession::finishEpoch(double epoch_wall, double dev_before)
{
    EpochStats es;
    es.batches = static_cast<size_t>(cur_.batchIndex);
    es.trainLoss =
        cur_.epochEvents ? cur_.lossSum / cur_.epochEvents : 0.0;
    es.avgBatchSize = cur_.batchIndex
        ? static_cast<double>(cur_.epochEvents) / cur_.batchIndex
        : 0.0;
    es.wallSeconds = epoch_wall;
    es.deviceSeconds = device_->totalSeconds() - dev_before;
    es.stableUpdateRatio = batcher_.stableUpdateRatio();
    cur_.completed.push_back(es);
    report_.stableUpdateRatio = batcher_.stableUpdateRatio();
    metrics_->counter("train.epochs").add(1);
    metrics_->histogram("epoch.wall_seconds").record(epoch_wall);

    ++cur_.epoch;
    cur_.st = 0;
    cur_.batchIndex = 0;
    cur_.lossSum = 0.0;
    cur_.epochEvents = 0;
}

void
TrainingSession::assembleReport()
{
    report_.epochs = cur_.completed;
    report_.totalBatches = static_cast<size_t>(cur_.totalBatches);
    // Wall time only covers this process's work: epochs restored from
    // a checkpoint keep the wall time they measured before the crash.
    report_.wallSeconds = 0.0;
    for (const EpochStats &es : report_.epochs)
        report_.wallSeconds += es.wallSeconds;
    report_.deviceSeconds = device_->totalSeconds();
    report_.deviceUtilization = device_->utilization();
    report_.avgBatchSize = cur_.totalBatches
        ? static_cast<double>(cur_.totalEvents) / cur_.totalBatches
        : 0.0;

    // Measurement fields come out of the registry the stages and the
    // bound components recorded into; the batcher accessors serve as
    // the views for instruments only Cascade policies publish.
    report_.modelSeconds =
        metrics_->histogram("stage.model.seconds").sum();
    report_.guardTrips =
        static_cast<size_t>(metrics_->counter("guard.trips").value());
    report_.rollbacks = static_cast<size_t>(
        metrics_->counter("train.rollbacks").value());
    report_.lookupSeconds = batcher_.lookupSeconds();
    // Preprocessing that happened lazily during training (pipelined
    // chunk builds) shows up as the delta against the initial charge.
    report_.preprocessSeconds = batcher_.preprocessSeconds();

    // Supervised-execution accounting (degradedMode and the disabled
    // flag were recorded at their transition points).
    report_.retries = static_cast<size_t>(
        metrics_->counter("supervisor.retries").value());
    report_.deadlineMisses = static_cast<size_t>(
        metrics_->counter("supervisor.deadline_misses").value());
    report_.degradations = static_cast<size_t>(
        metrics_->counter("degrade.transitions").value());
    report_.checkpointRetries = static_cast<size_t>(
        metrics_->counter("checkpoint.retries").value());
    report_.checkpointWriteFailures = static_cast<size_t>(
        metrics_->counter("checkpoint.write_failures").value());

    // Asynchronous-pipeline accounting. find* keeps a synchronous
    // run's metrics dump free of pipeline.* instruments.
    if (const obs::Counter *pb =
            metrics_->findCounter("pipeline.batches")) {
        report_.pipelined = pb->value() > 0;
    }
    if (const obs::Gauge *ms =
            metrics_->findGauge("pipeline.max_staleness")) {
        report_.maxStaleness = static_cast<size_t>(ms->value());
    }
    if (const obs::Histogram *sh =
            metrics_->findHistogram("pipeline.stall_seconds")) {
        report_.pipelineStallSeconds = sh->sum();
    }

    // Sharded-worker accounting (train/shard.hh). The group object
    // outlives its shutdown, so the tallies stay readable here.
    if (workerGroup_) {
        report_.workers = options_.workers;
        report_.shards = workerGroup_->shards();
        report_.workerProcs = options_.workerProcs;
        report_.workerDeaths = workerGroup_->deaths();
        report_.workerRebalances = workerGroup_->rebalances();
    }

    // Stage `eval`: the post-training validation pass.
    if (!report_.interrupted && options_.validate &&
        trainEnd_ < data_.size()) {
        StageScope stage(metrics_->histogram("stage.eval.seconds"),
                         *trace_, "eval");
        report_.valLoss = model_.evalLoss(data_, adj_, trainEnd_,
                                          data_.size(),
                                          options_.evalBatch);
    }

    // Summary gauges so a --metrics-out dump is self-contained.
    metrics_->gauge("train.wall_seconds").set(report_.wallSeconds);
    metrics_->gauge("train.avg_batch_size").set(report_.avgBatchSize);
    metrics_->gauge("train.stable_update_ratio")
        .set(report_.stableUpdateRatio);
    metrics_->gauge("train.val_loss").set(report_.valLoss);
    metrics_->gauge("train.lookup_seconds").set(report_.lookupSeconds);
    metrics_->gauge("train.preprocess_seconds")
        .set(report_.preprocessSeconds);
    metrics_->gauge("device.total_seconds")
        .set(report_.deviceSeconds);
}

TrainReport
TrainingSession::run()
{
    CASCADE_CHECK(!ran_, "TrainingSession::run: already ran");
    ran_ = true;

    initOrResume();

    // Bring the worker shards up at this quiescent point: the master
    // replica is final (resume applied), so forked children inherit
    // it copy-on-write and in-process replicas clone it directly.
    if (workerGroup_)
        workerGroup_->start();

    auto run_span = trace_->span("train", "session");
    while (cur_.epoch < options_.epochs) {
        if (cur_.st == 0 && cur_.batchIndex == 0) {
            // Fresh epoch. Both resets are deterministic, so a replay
            // after rollback (or a resume) retraces the exact
            // trajectory of the uninterrupted run.
            model_.resetState();
            batcher_.reset();
            if (workerGroup_)
                workerGroup_->resetReplicas();
        }
        auto epoch_span = trace_->span("epoch", "session");
        Timer epoch_timer;
        const double dev_before = device_->totalSeconds();
        bool rolled_back = false;

        while (cur_.st < trainEnd_) {
            const BatchOutcome out = depth_ > 0
                ? TrainingPipeline(*this).runSegment()
                : runInline();
            if (out == BatchOutcome::RolledBack) {
                rolled_back = true;
                break;
            }
            if (out == BatchOutcome::Crashed)
                break;
            if (out == BatchOutcome::Overloaded) {
                // One-way: the rest of the run (this segment's
                // remainder included) continues at depth 0.
                depth_ = 0;
                recordDegradation("pipeline-synchronous");
                report_.degradedMode = "pipeline-synchronous";
            }
        }
        if (rolled_back)
            continue; // re-enter the loop at the restored cursor
        if (report_.interrupted)
            break;

        finishEpoch(epoch_timer.seconds(), dev_before);
    }
    run_span.end();

    // Workers are only needed for training batches; stop them before
    // the final checkpoint and validation (master state is
    // authoritative, so nothing is lost).
    if (workerGroup_)
        workerGroup_->shutdown();

    // Final checkpoint (before validation advances the memories) so a
    // finished run can be extended with more epochs later.
    if (!report_.interrupted && !options_.checkpointPath.empty() &&
        options_.checkpointEvery > 0) {
        auto span = trace_->span("final-checkpoint", "session");
        writeCheckpoint(encodeCheckpoint(model_, batcher_, cur_),
                        "final checkpoint");
    }

    assembleReport();
    return report_;
}

} // namespace cascade
