/**
 * @file
 * Asynchronous-pipeline tests (train/pipeline.hh):
 *
 *  - S=0 is *bit-identical* to the synchronous staged loop — same
 *    batch boundaries, same per-batch losses, same final model — at
 *    1, 2 and 8 worker threads, for both the static FixedBatcher and
 *    the feedback-driven Cascade policy (where any reordering of the
 *    memory/feedback dependencies would shift every later boundary);
 *  - S>0 enforces the bounded-staleness invariant per batch: a model
 *    stage never reads node memory more than S batches stale, even
 *    with the update stage artificially slowed so the pipeline runs
 *    at maximum allowed skew;
 *  - a numeric-guard trip inside the pipeline quiesces, rolls back
 *    and replays to the same recovered trajectory as the synchronous
 *    loop;
 *  - the shared commit stage behaves the same at every depth: the
 *    trained prefix is hinted consumed up to the train end, and the
 *    model.* step counters count admitted batches only — with or
 *    without rollbacks, pipelined or sharded.
 *
 * Queue shutdown/exception propagation is covered by test_queue.cc;
 * SIGKILL crash/resume byte-identity by tools/chaos_soak.sh and
 * tools/fault_matrix.sh.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <vector>

#include "core/cascade_batcher.hh"
#include "graph/dataset.hh"
#include "train/session.hh"
#include "train/trainer.hh"
#include "util/fault.hh"
#include "util/parallel.hh"

using namespace cascade;

namespace {

struct Fixture
{
    DatasetSpec spec;
    EventSequence data;
    VectorEventSource src;
    TemporalAdjacency adj;
    size_t trainEnd;

    explicit Fixture(double scale = 250.0, uint64_t seed = 31)
        : spec(wikiSpec(scale)),
          data([&] {
              Rng rng(seed);
              return generateDataset(spec, rng);
          }()),
          src(data), adj(data), trainEnd(data.size() * 4 / 5)
    {}
};

struct SeenBatch
{
    size_t st = 0;
    size_t ed = 0;
    double loss = 0.0;
    size_t numEvents = 0;
    size_t memStaleness = 0;
};

/** Pin the global pool size for one test scope; restore the default. */
struct PoolGuard
{
    explicit PoolGuard(size_t n) { ThreadPool::setGlobalThreads(n); }
    ~PoolGuard() { ThreadPool::setGlobalThreads(0); }
};

/** Arm a fault plan for one scope; disarm on exit even on failure. */
struct FaultScope
{
    explicit FaultScope(const fault::Config &c) { fault::configure(c); }
    ~FaultScope() { fault::reset(); }
};

/**
 * One full session run with the given pipeline settings, returning
 * the observed per-batch trajectory (admitted batches only, in
 * admission order — the order the synchronous loop would produce).
 */
std::vector<SeenBatch>
runTrajectory(TgnnModel &model, const EventSource &data,
              const TemporalAdjacency &adj, size_t train_end,
              Batcher &batcher, size_t epochs, size_t depth,
              size_t staleness, TrainReport *report_out = nullptr)
{
    TrainOptions o;
    o.epochs = epochs;
    o.validate = false;
    o.pipelineDepth = depth;
    o.stalenessBound = staleness;
    // Small cadence so the drain-then-snapshot barrier runs many
    // times inside the pipelined segment (in-memory snapshots only;
    // no disk path).
    o.checkpointEvery = 8;

    std::vector<SeenBatch> out;
    TrainingSession session(model, data, adj, train_end, batcher, o);
    session.setBatchObserver([&](const BatchRecord &rec) {
        out.push_back(
            {rec.st, rec.ed, rec.loss, rec.numEvents, rec.memStaleness});
    });
    TrainReport r = session.run();
    if (report_out)
        *report_out = r;
    return out;
}

void
expectIdentical(const std::vector<SeenBatch> &sync_traj,
                const std::vector<SeenBatch> &piped)
{
    ASSERT_EQ(sync_traj.size(), piped.size());
    for (size_t i = 0; i < sync_traj.size(); ++i) {
        SCOPED_TRACE("batch " + std::to_string(i));
        EXPECT_EQ(sync_traj[i].st, piped[i].st);
        EXPECT_EQ(sync_traj[i].ed, piped[i].ed);
        EXPECT_EQ(sync_traj[i].numEvents, piped[i].numEvents);
        // Bit-identical, not approximately equal: S=0 must not move
        // a single floating-point operation relative to the
        // synchronous loop.
        EXPECT_EQ(sync_traj[i].loss, piped[i].loss);
    }
}

/**
 * Resident source that records the consumed-prefix hints the trainer
 * sends (an mmap-backed EventLogSource drops those pages).
 */
class HintRecordingSource final : public EventSource
{
  public:
    explicit HintRecordingSource(const EventSequence &seq) : inner_(seq) {}

    size_t numNodes() const override { return inner_.numNodes(); }
    size_t size() const override { return inner_.size(); }
    size_t featDim() const override { return inner_.featDim(); }
    Event event(EventIdx i) const override { return inner_.event(i); }
    const float *featureRow(EventIdx i) const override
    {
        return inner_.featureRow(i);
    }
    void hintConsumed(EventIdx cursor) const override
    {
        hints_.fetch_add(1);
        last_.store(cursor);
    }

    size_t hints() const { return hints_.load(); }
    EventIdx lastHint() const { return last_.load(); }

  private:
    VectorEventSource inner_;
    mutable std::atomic<size_t> hints_{0};
    mutable std::atomic<EventIdx> last_{0};
};

} // namespace

TEST(PipelineOutOfCore, TrainedPrefixIsHintedConsumedAtEveryDepth)
{
    Fixture f;
    for (size_t depth : {size_t{0}, size_t{2}}) {
        SCOPED_TRACE("depth=" + std::to_string(depth));
        HintRecordingSource src(f.data);
        TgnnModel model(tgnConfig(16), f.spec.numNodes, f.data.featDim(),
                        7);
        FixedBatcher batcher(f.trainEnd, f.spec.baseBatch);
        const std::vector<SeenBatch> traj =
            runTrajectory(model, src, f.adj, f.trainEnd, batcher,
                          /*epochs=*/1, depth, /*staleness=*/0);
        EXPECT_EQ(src.hints(), traj.size());
        EXPECT_EQ(src.lastHint(), static_cast<EventIdx>(f.trainEnd));
    }
}

TEST(PipelineRollback, ModelStepCountersCountAdmittedBatchesOnly)
{
    Fixture f;
    struct Mode
    {
        const char *name;
        size_t depth;
        size_t workers;
    };
    for (const Mode m : {Mode{"depth 0", 0, 1}, Mode{"depth 2", 2, 1},
                         Mode{"workers 2", 0, 2}}) {
        SCOPED_TRACE(m.name);
        fault::Config fc;
        fc.nanBatch = 5;
        FaultScope scope(fc);
        TgnnModel model(tgnConfig(16), f.spec.numNodes, f.data.featDim(),
                        7);
        FixedBatcher batcher(f.trainEnd, f.spec.baseBatch);
        TrainOptions o;
        o.epochs = 1;
        o.evalBatch = f.spec.baseBatch; // validation steps count nothing
        o.pipelineDepth = m.depth;
        o.workers = m.workers;
        o.checkpointEvery = 8;
        TrainingSession session(model, f.src, f.adj, f.trainEnd, batcher,
                                o);
        const TrainReport r = session.run();
        ASSERT_EQ(r.rollbacks, 1u);

        const obs::MetricsRegistry &mx = session.metrics();
        ASSERT_NE(mx.findCounter("model.steps"), nullptr);
        EXPECT_EQ(mx.findCounter("model.steps")->value(),
                  mx.findCounter("train.batches")->value());
        EXPECT_EQ(mx.findCounter("model.events")->value(),
                  mx.findCounter("train.events")->value());
    }
}

TEST(PipelineIdentity, S0CascadeBitIdenticalAcrossThreadCounts)
{
    Fixture f;
    const size_t epochs = 2;
    CascadeBatcher::Options copts;
    copts.baseBatch = f.spec.baseBatch;
    copts.seed = 11;

    // Synchronous reference (pipeline off), default pool.
    TgnnModel ref_model(tgnConfig(16), f.spec.numNodes, f.data.featDim(),
                        7);
    CascadeBatcher ref_batcher(f.src, f.adj, f.trainEnd, copts);
    const std::vector<SeenBatch> sync_traj =
        runTrajectory(ref_model, f.src, f.adj, f.trainEnd, ref_batcher,
                      epochs, /*depth=*/0, /*staleness=*/0);
    ASSERT_FALSE(sync_traj.empty());
    const double ref_eval =
        ref_model.evalLoss(f.data, f.adj, f.trainEnd, f.data.size(),
                           f.spec.baseBatch);

    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        PoolGuard pool(threads);

        TgnnModel model(tgnConfig(16), f.spec.numNodes, f.data.featDim(),
                        7);
        CascadeBatcher batcher(f.src, f.adj, f.trainEnd, copts);
        TrainReport report;
        const std::vector<SeenBatch> piped =
            runTrajectory(model, f.src, f.adj, f.trainEnd, batcher,
                          epochs, /*depth=*/4, /*staleness=*/0, &report);

        expectIdentical(sync_traj, piped);
        for (const SeenBatch &b : piped)
            EXPECT_EQ(b.memStaleness, 0u);
        EXPECT_TRUE(report.pipelined);
        EXPECT_EQ(report.maxStaleness, 0u);
        EXPECT_EQ(report.degradedMode, "none");
        // Same trajectory => same final weights => same eval loss.
        EXPECT_EQ(ref_eval,
                  model.evalLoss(f.data, f.adj, f.trainEnd,
                                 f.data.size(), f.spec.baseBatch));
    }
}

TEST(PipelineIdentity, S0FixedBatcherBitIdentical)
{
    Fixture f;
    const size_t epochs = 2;

    TgnnModel ref_model(tgnConfig(16), f.spec.numNodes, f.data.featDim(),
                        7);
    FixedBatcher ref_batcher(f.trainEnd, f.spec.baseBatch);
    const std::vector<SeenBatch> sync_traj =
        runTrajectory(ref_model, f.src, f.adj, f.trainEnd, ref_batcher,
                      epochs, 0, 0);
    ASSERT_FALSE(sync_traj.empty());

    PoolGuard pool(2);
    TgnnModel model(tgnConfig(16), f.spec.numNodes, f.data.featDim(), 7);
    FixedBatcher batcher(f.trainEnd, f.spec.baseBatch);
    const std::vector<SeenBatch> piped = runTrajectory(
        model, f.src, f.adj, f.trainEnd, batcher, epochs, 4, 0);

    expectIdentical(sync_traj, piped);
}

TEST(PipelineStaleness, BoundHoldsPerBatchUnderSlowUpdates)
{
    Fixture f;
    const size_t kBound = 2;

    // Slow the update (writeback) stage so the model thread runs at
    // the maximum skew the watermark gate allows; without the gate
    // the staleness would grow with every batch. How much latency it
    // takes to outpace the model stage depends on the build — TSan
    // runs the forward pass an order of magnitude slower — so
    // escalate until some batch actually observes stale memory. The
    // bound itself must hold at every escalation step.
    std::vector<SeenBatch> piped;
    TrainReport report;
    size_t max_seen = 0;
    for (const double latency_ms : {3.0, 12.0, 48.0, 192.0}) {
        fault::Config fc;
        fc.latencyStage = "update";
        fc.latencyMs = latency_ms;
        FaultScope scope(fc);

        PoolGuard pool(2);
        TgnnModel model(tgnConfig(16), f.spec.numNodes,
                        f.data.featDim(), 7);
        FixedBatcher batcher(f.trainEnd, f.spec.baseBatch);
        report = TrainReport{};
        piped = runTrajectory(model, f.src, f.adj, f.trainEnd, batcher,
                              /*epochs=*/1, /*depth=*/4, kBound,
                              &report);
        ASSERT_FALSE(piped.empty());

        max_seen = 0;
        for (size_t i = 0; i < piped.size(); ++i) {
            SCOPED_TRACE("latency " + std::to_string(latency_ms) +
                         "ms, batch " + std::to_string(i));
            EXPECT_LE(piped[i].memStaleness, kBound);
            max_seen = std::max(max_seen, piped[i].memStaleness);
        }
        EXPECT_EQ(report.maxStaleness, max_seen);
        EXPECT_TRUE(report.pipelined);
        if (max_seen >= 1)
            break;
    }
    // The slowed update stage forces the pipeline off the S=0
    // schedule: some batch must actually observe stale memory.
    EXPECT_GE(max_seen, 1u);

    // FixedBatcher boundaries are feedback-independent, so staleness
    // may change losses but never the batch partition.
    TgnnModel ref_model(tgnConfig(16), f.spec.numNodes, f.data.featDim(),
                        7);
    FixedBatcher ref_batcher(f.trainEnd, f.spec.baseBatch);
    const std::vector<SeenBatch> sync_traj = runTrajectory(
        ref_model, f.src, f.adj, f.trainEnd, ref_batcher, 1, 0, 0);
    ASSERT_EQ(sync_traj.size(), piped.size());
    for (size_t i = 0; i < piped.size(); ++i) {
        EXPECT_EQ(sync_traj[i].st, piped[i].st);
        EXPECT_EQ(sync_traj[i].ed, piped[i].ed);
    }
}

TEST(PipelineRollback, NanTripRecoversLikeSynchronousLoop)
{
    Fixture f;
    const long kNanBatch = 5;

    auto run_with_nan = [&](size_t depth) {
        fault::Config fc;
        fc.nanBatch = kNanBatch;
        FaultScope scope(fc);
        TgnnModel model(tgnConfig(16), f.spec.numNodes, f.data.featDim(),
                        7);
        FixedBatcher batcher(f.trainEnd, f.spec.baseBatch);
        TrainReport report;
        std::vector<SeenBatch> traj =
            runTrajectory(model, f.src, f.adj, f.trainEnd, batcher,
                          /*epochs=*/1, depth, /*staleness=*/0, &report);
        const double eval =
            model.evalLoss(f.data, f.adj, f.trainEnd, f.data.size(),
                           f.spec.baseBatch);
        return std::make_tuple(std::move(traj), report, eval);
    };

    const auto [sync_traj, sync_report, sync_eval] = run_with_nan(0);
    ASSERT_EQ(sync_report.rollbacks, 1u);

    PoolGuard pool(2);
    const auto [piped_traj, piped_report, piped_eval] = run_with_nan(4);
    EXPECT_EQ(piped_report.rollbacks, 1u);
    EXPECT_EQ(piped_report.guardTrips, sync_report.guardTrips);

    // The pipelined recovery (quiesce, restore last good snapshot,
    // replay) must land on the same admitted trajectory and weights
    // as the synchronous guard path.
    expectIdentical(sync_traj, piped_traj);
    EXPECT_EQ(sync_eval, piped_eval);
}
