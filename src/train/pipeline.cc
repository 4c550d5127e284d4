#include "train/pipeline.hh"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <map>
#include <thread>
#include <utility>

#include "util/logging.hh"
#include "util/queue.hh"
#include "util/thread_annotations.hh"
#include "util/timer.hh"

namespace cascade {

/**
 * Shared pipeline state. One coordination mutex (m) carries the
 * watermark counters and cross-thread hand-offs; a second lock
 * (memLock) serializes node-memory/mailbox access — the model
 * thread's forward reads against the update worker's writebacks —
 * without ever being held across a wait.
 */
struct TrainingPipeline::State
{
    State(size_t depth, obs::MetricsRegistry &mx)
        : planQ(depth), updateQ(depth), ckptQ(2),
          stall(mx.histogram("pipeline.stall_seconds")),
          updateDepth(mx.gauge("pipeline.update_queue_depth"))
    {}

    AnnotatedMutex m;
    std::condition_variable_any cv;

    /** Batches whose memory/mailbox writeback has been applied. */
    uint64_t writebackApplied CASCADE_GUARDED_BY(m) = 0;
    /** Batches whose feedback reached the batcher/device. */
    uint64_t feedbackApplied CASCADE_GUARDED_BY(m) = 0;
    /** Batches fully finished on the model thread (incl. cadence). */
    uint64_t modelDone CASCADE_GUARDED_BY(m) = 0;
    /** Guard verdicts by segment ordinal (erased when consumed). */
    std::map<uint64_t, bool> verdicts CASCADE_GUARDED_BY(m);
    /** Admitted batches awaiting feedback on the boundary worker. */
    std::deque<Batch> feedback CASCADE_GUARDED_BY(m);
    /** Hard stop: discard in-flight work (rollback / crash). */
    bool aborted CASCADE_GUARDED_BY(m) = false;
    /** Graceful stop: no new plans, finish in-flight (overload). */
    bool draining CASCADE_GUARDED_BY(m) = false;
    /** Set by the boundary worker when it stops issuing plans. */
    bool boundaryDone CASCADE_GUARDED_BY(m) = false;
    uint64_t totalPlans CASCADE_GUARDED_BY(m) = 0;

    /** Serializes TgnnModel memory_/mailbox_ access (stepForward on
     *  the model thread vs applyWriteback on the update worker). */
    AnnotatedMutex memLock;

    BoundedQueue<Batch> planQ;   ///< boundary worker -> model thread
    BoundedQueue<Batch> updateQ; ///< model thread -> update worker
    BoundedQueue<std::string> ckptQ;

    obs::Histogram &stall;
    obs::Gauge &updateDepth;
};

TrainingPipeline::TrainingPipeline(TrainingSession &session)
    : s_(session)
{
    CASCADE_CHECK(s_.depth_ > 0, "pipeline depth must be >= 1");
    st_ = std::make_unique<State>(s_.depth_, *s_.metrics_);
    s_.pipeline_ = this;
}

TrainingPipeline::~TrainingPipeline()
{
    s_.pipeline_ = nullptr;
}

AnnotatedMutex &
TrainingPipeline::memoryLock()
{
    return st_->memLock;
}

void
TrainingPipeline::handoff(const Batch &b, TgnnModel::Forward &f)
{
    // The update worker needs the plan, the deferred writeback and
    // the forward's loss and work counts for the batch's feedback.
    Batch job = b;
    job.result = f.result;
    job.writeback = std::move(f.writeback);
    const bool queued = st_->updateQ.push(std::move(job));
    CASCADE_CHECK(queued, "update queue closed while the model stage runs");
    st_->updateDepth.set(static_cast<double>(st_->updateQ.size()));
}

void
TrainingPipeline::drainThrough(const Batch &b)
{
    Timer barrier;
    UniqueLock lock(st_->m);
    while (st_->writebackApplied < b.seg + 1 ||
           st_->feedbackApplied < b.seg + 1) {
        st_->cv.wait(lock);
    }
    st_->stall.record(barrier.seconds());
}

void
TrainingPipeline::queueWrite(const std::string &payload)
{
    if (s_.options_.checkpointPath.empty())
        return;
    st_->ckptQ.push(payload);
    s_.metrics_->gauge("pipeline.checkpoint_queue_depth")
        .set(static_cast<double>(st_->ckptQ.size()));
}

TrainingSession::BatchOutcome
TrainingPipeline::runSegment()
{
    using BatchOutcome = TrainingSession::BatchOutcome;
    State &st = *st_;
    TrainingSession &s = s_;
    obs::MetricsRegistry &mx = *s.metrics_;
    const size_t S = s.options_.stalenessBound;
    const uint64_t every = s.options_.checkpointEvery;
    const double overload_ms = s.options_.supervisor.stageDeadlineMs;
    const uint64_t g0 = s.cur_.globalBatch;        // starting global batch
    const uint64_t b0 = s.cur_.batchIndex;         // starting epoch batch
    const size_t startSt = static_cast<size_t>(s.cur_.st);

    // Fresh staleness epoch: watermarks are segment-local ordinals.
    s.model_.memoryMutable().clearStaleness();
    s.model_.mailboxMutable().clearStaleness();

    mx.counter("pipeline.segments").add(1);
    auto seg_span = s.trace_->span("pipeline-segment", "pipeline");
    Timer seg_wall;

    // Smallest cadence ordinal >= from (UINT64_MAX when no cadence).
    // Ordinal c is a cadence point iff the post-increment global
    // batch (g0 + c + 1) hits the checkpoint cadence — the same test
    // commitStage applies after advancing.
    const auto next_cadence = [every, g0](uint64_t from) -> uint64_t {
        if (every == 0)
            return UINT64_MAX;
        const uint64_t r = (g0 + from + 1) % every;
        return from + ((every - r) % every);
    };

    Accumulator boundary_busy, update_busy, writer_busy, model_busy;

    // ---- boundary worker -------------------------------------------
    std::thread boundary_thread([&] {
        obs::Histogram &stall_h =
            mx.histogram("pipeline.boundary_stall_seconds");
        obs::Gauge &depth_g = mx.gauge("pipeline.plan_queue_depth");

        // Apply one admitted batch's feedback to device + batcher.
        const auto apply_feedback = [&](const Batch &fb) {
            TimerGuard busy(boundary_busy);
            s.feedbackStage(fb);
            LockGuard lock(st.m);
            st.feedbackApplied = fb.seg + 1;
            st.cv.notify_all();
        };

        uint64_t issued = 0;
        size_t st_cur = startSt;
        bool stopped = false;
        while (!stopped && st_cur < s.trainEnd_) {
            const uint64_t j = issued;
            const uint64_t need_fb = j > S ? j - S : 0;
            // Gate: feedback caught up to the staleness schedule and
            // no unfinished cadence point behind us (drain-then-
            // snapshot barrier). Feedback application happens inside
            // the wait so the model thread's barriers can make
            // progress while we are blocked here.
            for (;;) {
                Batch fb;
                bool have_fb = false;
                {
                    UniqueLock lock(st.m);
                    while (true) {
                        if (st.aborted || st.draining) {
                            stopped = true;
                            break;
                        }
                        if (!st.feedback.empty()) {
                            fb = std::move(st.feedback.front());
                            st.feedback.pop_front();
                            have_fb = true;
                            break;
                        }
                        if (st.feedbackApplied >= need_fb &&
                            next_cadence(st.modelDone) >= j) {
                            break;
                        }
                        Timer stall;
                        st.cv.wait(lock);
                        stall_h.record(stall.seconds());
                    }
                }
                if (stopped)
                    break;
                if (have_fb) {
                    apply_feedback(fb);
                    continue;
                }
                break; // gate satisfied
            }
            if (stopped)
                break;

            Batch plan;
            plan.seg = j;
            plan.globalBatch = g0 + j;
            plan.batchIndex = static_cast<size_t>(b0 + j);
            plan.st = st_cur;
            {
                TimerGuard busy(boundary_busy);
                plan.ed = s.boundaryStage(st_cur);
            }
            const size_t ed = plan.ed;
            if (!st.planQ.push(std::move(plan)))
                break; // closed: hard abort
            depth_g.set(static_cast<double>(st.planQ.size()));
            st_cur = ed;
            ++issued;
        }
        st.planQ.close();
        {
            LockGuard lock(st.m);
            st.totalPlans = issued;
            st.boundaryDone = true;
            st.cv.notify_all();
        }
        // Drain: keep applying feedback for already-issued plans so
        // the model thread's barriers and final drain can complete.
        for (;;) {
            Batch fb;
            {
                UniqueLock lock(st.m);
                while (!st.aborted && st.feedback.empty() &&
                       st.feedbackApplied < issued) {
                    st.cv.wait(lock);
                }
                if (st.aborted ||
                    (st.feedback.empty() &&
                     st.feedbackApplied >= issued)) {
                    break;
                }
                fb = std::move(st.feedback.front());
                st.feedback.pop_front();
            }
            apply_feedback(fb);
        }
    });

    // ---- update worker ---------------------------------------------
    std::thread update_thread([&] {
        obs::Histogram &stall_h =
            mx.histogram("pipeline.update_stall_seconds");
        Batch job;
        for (;;) {
            Timer stall;
            if (!st.updateQ.pop(job))
                break;
            stall_h.record(stall.seconds());
            {
                LockGuard lock(st.m);
                if (st.aborted)
                    continue; // rollback/crash: discard in flight
            }
            TimerGuard busy(update_busy);
            TrainingSession::StageScope stage(
                mx.histogram("stage.update.seconds"), *s.trace_, "update");
            auto wd = s.supervisor_->watch("update");
            {
                LockGuard mem(st.memLock);
                s.writebackStage(job, job.seg + 1);
                s.model_.memoryMutable().markBatchApplied(job.seg + 1);
                s.model_.mailboxMutable().markBatchApplied(job.seg + 1);
            }

            UniqueLock lock(st.m);
            st.writebackApplied = job.seg + 1;
            st.cv.notify_all();
            // Wait for the guard verdict before forwarding feedback: a
            // rolled-back batch contributes none.
            bool admitted = false;
            while (!st.aborted) {
                auto it = st.verdicts.find(job.seg);
                if (it != st.verdicts.end()) {
                    admitted = it->second;
                    st.verdicts.erase(it);
                    break;
                }
                st.cv.wait(lock);
            }
            if (admitted) {
                st.feedback.push_back(std::move(job));
                st.cv.notify_all();
            }
        }
    });

    // ---- checkpoint writer -----------------------------------------
    std::thread writer_thread([&] {
        obs::Histogram &stall_h =
            mx.histogram("pipeline.checkpoint_stall_seconds");
        std::string payload;
        for (;;) {
            Timer stall;
            if (!st.ckptQ.pop(payload))
                break;
            stall_h.record(stall.seconds());
            TimerGuard busy(writer_busy);
            TrainingSession::StageScope stage(
                mx.histogram("stage.checkpoint.seconds"), *s.trace_,
                "checkpoint-write");
            s.writeCheckpoint(payload, "checkpoint");
        }
    });

    // ---- model thread (this thread) --------------------------------
    obs::Histogram &staleness_h =
        mx.histogram("pipeline.memory_staleness");
    uint64_t max_staleness = 0;
    int overload_strikes = 0;
    bool overloaded = false;
    bool crashed = false;
    bool rolled_back = false;

    const auto quiesce = [&](bool hard) {
        if (hard) {
            LockGuard lock(st.m);
            st.aborted = true;
            st.cv.notify_all();
        }
        st.planQ.close();
        st.updateQ.close();
        boundary_thread.join();
        update_thread.join();
        st.ckptQ.close(); // writer drains queued snapshots, then exits
        writer_thread.join();
    };
    const auto publish_verdict = [&](uint64_t j, bool admitted) {
        LockGuard lock(st.m);
        st.verdicts[j] = admitted;
        st.cv.notify_all();
    };

    Batch b;
    for (;;) {
        Timer stall;
        if (!st.planQ.pop(b))
            break; // boundary finished (or aborted — not from here)
        const uint64_t j = b.seg;

        // Staleness gate: forward(j) may run once writebacks through
        // j-S are in. S=0 degenerates to "everything before j" — the
        // inline data flow.
        uint64_t wb_applied;
        {
            const uint64_t need_wb = j > S ? j - S : 0;
            UniqueLock lock(st.m);
            while (st.writebackApplied < need_wb)
                st.cv.wait(lock);
            wb_applied = st.writebackApplied;
        }
        const uint64_t stale = j - (wb_applied > j ? j : wb_applied);
        CASCADE_CHECK(stale <= S,
                      "staleness bound violated at the model gate");
        b.memStaleness = static_cast<size_t>(stale);
        staleness_h.record(static_cast<double>(stale));
        max_staleness = std::max(max_staleness, stale);

        const double stall_s = stall.seconds();
        st.stall.record(stall_s);
        if (overload_ms > 0.0) {
            if (stall_s * 1e3 > overload_ms) {
                if (++overload_strikes >= kOverloadStrikes &&
                    !overloaded) {
                    overloaded = true;
                    CASCADE_LOG(
                        "pipeline overloaded: model stage stalled "
                        ">%g ms for %d consecutive batches",
                        overload_ms, kOverloadStrikes);
                    LockGuard lock(st.m);
                    st.draining = true;
                    st.cv.notify_all();
                }
            } else {
                overload_strikes = 0;
            }
        }

        {
            TimerGuard busy(model_busy);
            s.modelStage(b);
        }
        if (!s.admitStage(b)) {
            // A trip quiesces the whole pipeline before the restore.
            publish_verdict(j, false);
            quiesce(/*hard=*/true);
            s.rollback();
            rolled_back = true;
            break;
        }
        publish_verdict(j, true);

        mx.counter("pipeline.batches").add(1);
        const bool alive = s.commitStage(b);
        {
            LockGuard lock(st.m);
            st.modelDone = j + 1;
            st.cv.notify_all();
        }
        if (!alive) {
            crashed = true;
            // Hard stop — but the writer queue still drains inside
            // quiesce(), so cadence snapshots taken before the crash
            // reach disk exactly as the inline driver's did.
            quiesce(/*hard=*/true);
            break;
        }
    }

    if (!crashed && !rolled_back) {
        // Normal end (epoch complete or overloaded drain): wait for
        // every issued batch's writeback + feedback, then shut down.
        st.updateQ.close();
        {
            UniqueLock lock(st.m);
            while (!st.boundaryDone ||
                   st.writebackApplied < st.totalPlans ||
                   st.feedbackApplied < st.totalPlans) {
                st.cv.wait(lock);
            }
        }
        quiesce(/*hard=*/false);
    }

    const double wall = seg_wall.seconds();
    if (wall > 0.0) {
        mx.gauge("pipeline.model_occupancy")
            .set(model_busy.seconds() / wall);
        mx.gauge("pipeline.boundary_occupancy")
            .set(boundary_busy.seconds() / wall);
        mx.gauge("pipeline.update_occupancy")
            .set(update_busy.seconds() / wall);
        mx.gauge("pipeline.checkpoint_occupancy")
            .set(writer_busy.seconds() / wall);
    }
    {
        obs::Gauge &g = mx.gauge("pipeline.max_staleness");
        g.set(std::max(g.value(), static_cast<double>(max_staleness)));
    }
    seg_span.end();

    if (rolled_back)
        return BatchOutcome::RolledBack;
    if (crashed)
        return BatchOutcome::Crashed;
    if (overloaded) {
        mx.counter("pipeline.overloads").add(1);
        return BatchOutcome::Overloaded;
    }
    return BatchOutcome::Completed;
}

} // namespace cascade
