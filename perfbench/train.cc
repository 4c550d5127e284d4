/**
 * @file
 * Training workloads: train-model and train-cascade.
 *
 * Untraced (--trace 0): the workload is set up several times (median
 * reported as setup_s), then trained through the public
 * TrainingSession for whole 2-epoch runs until --seconds have passed
 * (at least kMinRuns). Every run restarts from the same inputs and a
 * model built from the same seed, so every run must reproduce the
 * first one bit for bit.
 *
 * Traced (--trace 1): one untraced TrainingSession run, then the same
 * synchronous loop driven here call by call, in the order of
 * TrainingSession::runBatch, under spans. The traced run's per-batch
 * boundaries and losses must equal the untraced run's bit for bit,
 * which shows the two did the same work.
 */

#include <algorithm>
#include <cmath>
#include <memory>

#include "bench.hh"
#include "core/cascade_batcher.hh"
#include "graph/dataset.hh"
#include "train/checkpoint.hh"
#include "train/session.hh"
#include "util/parallel.hh"
#include "util/timer.hh"

namespace perfbench {

using namespace cascade;

namespace {

constexpr size_t kEpochs = 2;
constexpr size_t kMinRuns = 2;
constexpr size_t kPipelineDepth = 4;
/**
 * Step latency is reported per chunk of consecutive batches holding at
 * least kChunkEvents events, scaled to exactly kChunkEvents: Cascade
 * sizes its batches from the data, so a per-batch time would measure
 * the seed's batch sizes more than the code.
 */
constexpr size_t kChunkEvents = 500;

/** The fixed configuration of one training workload. */
struct TrainConfig
{
    /** The statistics of one part of the input stream. */
    DatasetSpec spec;
    /**
     * Independently generated graphs of `spec`, placed one after the
     * other in time with disjoint node ids (see generateInputs).
     */
    size_t parts = 1;
    ModelConfig model;
    /**
     * The traced run also trains once through the asynchronous
     * pipeline (depth kPipelineDepth, S=0) for the pipeline.* metrics.
     */
    bool tracePipeline = false;
};

TrainConfig
configFor(const Args &a)
{
    TrainConfig c;
    if (a.workload == "train-model") {
        // ROADMAP's W128: TGN on WIKI, dense model work dominates.
        c.spec = wikiSpec(a.toy ? 400.0 : 10.0);
        c.model = tgnConfig(a.toy ? 16 : 128);
    } else {
        // JODIE on SX-FULL: many small batches, Cascade's own stages
        // dominate. Four graphs at a quarter of the size each: the
        // batch count, which sets the speed, then averages over four
        // independent draws instead of following one seed's graph.
        c.spec = sxFullSpec(a.toy ? 64000.0 : 4000.0);
        c.parts = 4;
        c.model = jodieConfig(16);
        c.tracePipeline = true;
    }
    return c;
}

/** Everything the training loop needs, built from the seed. */
struct TrainSetup
{
    std::unique_ptr<VectorEventSource> src;
    std::unique_ptr<TemporalAdjacency> adj;
    size_t trainEnd = 0;
    size_t numNodes = 0;
    std::unique_ptr<CascadeBatcher> batcher;
    /** The model built during set-up; the first run takes it. */
    std::unique_ptr<TgnnModel> model;

    double generateS = 0.0;
    double adjacencyS = 0.0;
    double batcherS = 0.0;
    double modelS = 0.0;
    double totalS = 0.0;
};

std::unique_ptr<TgnnModel>
buildModel(const TrainConfig &cfg, const TrainSetup &s, uint64_t seed)
{
    return std::make_unique<TgnnModel>(cfg.model, s.numNodes,
                                       s.src->featDim(), seed + 1);
}

/**
 * The input stream: cfg.parts graphs generated from seeds derived from
 * `seed` (part 0 from `seed` itself), part k's node ids shifted past
 * part k-1's and its timestamps starting one mean inter-event gap
 * after part k-1's last event.
 */
EventSequence
generateInputs(const TrainConfig &cfg, uint64_t seed)
{
    EventSequence out;
    std::vector<float> feats;
    size_t feat_dim = 0;
    double ts_offset = 0.0;
    for (size_t k = 0; k < cfg.parts; ++k) {
        Rng rng(seed + k * 0x9E3779B97F4A7C15ULL);
        EventSequence part = generateDataset(cfg.spec, rng);
        if (cfg.parts == 1)
            return part;
        feat_dim = part.featDim();
        const double first = part.events.front().ts;
        const double last = part.events.back().ts;
        const double gap = (last - first) / part.size();
        for (Event e : part.events) {
            e.src += static_cast<NodeId>(out.numNodes);
            e.dst += static_cast<NodeId>(out.numNodes);
            e.ts += ts_offset - first;
            out.events.push_back(e);
        }
        feats.insert(feats.end(), part.features.data(),
                     part.features.data() + part.features.size());
        out.numNodes += std::max(cfg.spec.numNodes, part.numNodes);
        ts_offset += last - first + gap;
    }
    out.features = Tensor(out.events.size(), feat_dim, std::move(feats));
    return out;
}

/** Set-up as cascade_train does it: generate, adjacency, batcher, model. */
std::unique_ptr<TrainSetup>
buildSetup(const TrainConfig &cfg, uint64_t seed)
{
    auto s = std::make_unique<TrainSetup>();
    Timer total;
    Timer t;
    s->src = std::make_unique<VectorEventSource>(generateInputs(cfg, seed));
    s->generateS = t.seconds();
    t.reset();
    s->adj = std::make_unique<TemporalAdjacency>(*s->src);
    s->adjacencyS = t.seconds();
    s->trainEnd = s->src->size() * 17 / 20;
    s->numNodes = std::max(cfg.spec.numNodes, s->src->numNodes());
    t.reset();
    CascadeBatcher::Options o;
    o.baseBatch = cfg.spec.baseBatch;
    o.seed = seed + 2;
    s->batcher = std::make_unique<CascadeBatcher>(*s->src, *s->adj,
                                                  s->trainEnd, o);
    s->batcherS = t.seconds();
    t.reset();
    s->model = buildModel(cfg, *s, seed);
    s->modelS = t.seconds();
    s->totalS = total.seconds();
    return s;
}

/** The next run's model: the set-up's own first, then fresh ones. */
std::unique_ptr<TgnnModel>
takeModel(const TrainConfig &cfg, TrainSetup &s, uint64_t seed)
{
    return s.model ? std::move(s.model) : buildModel(cfg, s, seed);
}

/** One whole training run through TrainingSession. */
struct SessionRun
{
    std::vector<BatchRecord> batches;
    /**
     * On-CPU ms per kChunkEvents events, over consecutive admitted
     * batches.
     */
    std::vector<double> chunkMs;
    double loopS = 0.0;    ///< TrainingSession::run, wall, timed outside
    double loopCpuS = 0.0; ///< the same, on-CPU seconds
    double valLoss = 0.0;
    size_t events = 0;
    size_t guardTrips = 0;
    /** Guard trips, rollbacks, supervisor retries and degradations. */
    size_t failures = 0;
    double pipelineStallS = 0.0;
    double modelOccupancy = 0.0;
    double updateOccupancy = 0.0;
};

TrainOptions
trainOptions(const TrainConfig &cfg, uint64_t seed, size_t depth)
{
    TrainOptions o;
    o.epochs = kEpochs;
    o.evalBatch = cfg.spec.baseBatch;
    o.validate = false; // validation is timed apart from the loop
    o.pipelineDepth = depth;
    o.supervisor.retry.seed = seed + 3;
    return o;
}

SessionRun
runSession(const TrainConfig &cfg, TrainSetup &s, uint64_t seed,
           size_t depth)
{
    std::unique_ptr<TgnnModel> model = takeModel(cfg, s, seed);
    DeviceModel device(scaledDeviceParams(cfg.spec.baseBatch));
    obs::MetricsRegistry registry;
    SessionRun out;
    {
        TrainingSession session(*model, *s.src, *s.adj, s.trainEnd,
                                *s.batcher,
                                trainOptions(cfg, seed, depth), &device,
                                &registry);
        CpuTimer lap;
        size_t chunk_events = 0;
        session.setBatchObserver([&](const BatchRecord &r) {
            chunk_events += r.numEvents;
            if (chunk_events >= kChunkEvents) {
                out.chunkMs.push_back(lap.milliseconds() * kChunkEvents /
                                      static_cast<double>(chunk_events));
                chunk_events = 0;
                lap.reset();
            }
            out.batches.push_back(r);
            out.events += r.numEvents;
        });
        CpuTimer loop_cpu;
        Timer loop;
        const TrainReport rep = session.run();
        out.loopS = loop.seconds();
        out.loopCpuS = loop_cpu.seconds();
        out.guardTrips = rep.guardTrips;
        out.failures = rep.guardTrips + rep.rollbacks + rep.retries +
                       rep.degradations;
    }
    if (const obs::Histogram *h =
            registry.findHistogram("pipeline.stall_seconds"))
        out.pipelineStallS = h->sum();
    if (const obs::Gauge *g = registry.findGauge("pipeline.model_occupancy"))
        out.modelOccupancy = g->value();
    if (const obs::Gauge *g =
            registry.findGauge("pipeline.update_occupancy"))
        out.updateOccupancy = g->value();
    out.valLoss = model->evalLoss(*s.src, *s.adj, s.trainEnd,
                                  s.src->size(), cfg.spec.baseBatch);
    return out;
}

/** One whole training run driven call by call under spans. */
struct TracedRun
{
    std::vector<BatchRecord> batches;
    double loopS = 0.0;
    double valLoss = 0.0;
    size_t nonFinite = 0;
    bool badRange = false;
    kernels::KernelStats kernels; ///< delta over the loop
    double deviceS = 0.0;
    double utilization = 0.0;
    double stableRatio = 0.0;
    size_t maxr = 0;
};

/**
 * The synchronous loop of TrainingSession (no guard trips, no
 * checkpoint files), call for call: Batcher::next, the decomposed
 * TgnnModel::step, DeviceModel::charge, Batcher::onBatchDone, then the
 * rollback snapshot at the session's default cadence. `log` may be
 * null: the same loop untraced.
 */
TracedRun
runTraced(const TrainConfig &cfg, TrainSetup &s, uint64_t seed,
          SpanLog *log)
{
    std::unique_ptr<TgnnModel> owned = takeModel(cfg, s, seed);
    TgnnModel &model = *owned;
    CascadeBatcher &batcher = *s.batcher;
    const EventSource &src = *s.src;
    const size_t every = TrainOptions{}.checkpointEvery;
    DeviceModel device(scaledDeviceParams(cfg.spec.baseBatch));
    TrainerCursor cur;
    std::string lastGood;
    TracedRun out;

    const kernels::KernelStats k0 = kernels::stats();
    Timer wall;
    {
        SpanLog::Scope loop(log, "train.loop");
        lastGood = traced(log, "train.snapshot_encode", -1, [&] {
            return encodeCheckpoint(model, batcher, cur);
        });
        while (cur.epoch < kEpochs && !out.badRange) {
            traced(log, "tgnn.reset_state", -1,
                   [&] { model.resetState(); });
            traced(log, "core.reset", -1, [&] { batcher.reset(); });
            const double dev_before = device.totalSeconds();
            while (cur.st < s.trainEnd) {
                const int64_t gb = static_cast<int64_t>(cur.globalBatch);
                SpanLog::Scope batch(log, "train.batch", gb);
                const size_t st = static_cast<size_t>(cur.st);
                const size_t ed = traced(log, "core.next", gb,
                                         [&] { return batcher.next(st); });
                if (ed <= st || ed > s.trainEnd) {
                    out.badRange = true;
                    break;
                }
                TgnnModel::Forward f = traced(log, "tgnn.forward", gb, [&] {
                    return model.stepForward(src, *s.adj, st, ed);
                });
                traced(log, "tgnn.backward", gb,
                       [&] { model.stepBackward(f); });
                StepResult r = std::move(f.result);
                traced(log, "tgnn.writeback", gb, [&] {
                    if (f.writeback.active) {
                        r.memCosine = model.applyWriteback(src, f.writeback);
                        r.updatedNodes = std::move(f.writeback.nodes);
                    }
                });
                traced(log, "tgnn.record_metrics", gb,
                       [&] { model.recordStepMetrics(r); });
                if (!std::isfinite(r.loss))
                    ++out.nonFinite;
                traced(log, "sim.charge", gb, [&] {
                    device.charge(r.numEvents, r.workRows,
                                  r.sampledNeighbors);
                });
                traced(log, "core.feedback", gb, [&] {
                    BatchFeedback fb;
                    fb.batchIndex = static_cast<size_t>(cur.batchIndex);
                    fb.st = st;
                    fb.ed = ed;
                    fb.loss = r.loss;
                    fb.updatedNodes = &r.updatedNodes;
                    fb.memCosine = &r.memCosine;
                    batcher.onBatchDone(fb);
                });

                cur.lossSum += r.loss * r.numEvents;
                cur.epochEvents += r.numEvents;
                cur.totalEvents += r.numEvents;
                ++cur.batchIndex;
                ++cur.totalBatches;
                ++cur.globalBatch;
                cur.st = ed;
                BatchRecord rec;
                rec.globalBatch = static_cast<uint64_t>(gb);
                rec.epoch = static_cast<size_t>(cur.epoch);
                rec.st = st;
                rec.ed = ed;
                rec.loss = r.loss;
                rec.numEvents = r.numEvents;
                out.batches.push_back(rec);

                if (every != 0 && cur.globalBatch % every == 0) {
                    lastGood = traced(log, "train.snapshot_encode", gb, [&] {
                        return encodeCheckpoint(model, batcher, cur);
                    });
                }
            }
            // TrainingSession::finishEpoch's bookkeeping.
            EpochStats es;
            es.batches = static_cast<size_t>(cur.batchIndex);
            es.trainLoss = cur.epochEvents
                ? cur.lossSum / static_cast<double>(cur.epochEvents)
                : 0.0;
            es.deviceSeconds = device.totalSeconds() - dev_before;
            es.stableUpdateRatio = batcher.stableUpdateRatio();
            cur.completed.push_back(es);
            ++cur.epoch;
            cur.st = 0;
            cur.batchIndex = 0;
            cur.lossSum = 0.0;
            cur.epochEvents = 0;
        }
    }
    out.loopS = wall.seconds();
    out.kernels = kernelDelta(k0, kernels::stats());
    out.deviceS = device.totalSeconds();
    out.utilization = device.utilization();
    out.stableRatio = batcher.stableUpdateRatio();
    out.maxr = batcher.abs().currentMaxRevisit();
    out.valLoss = traced(log, "tgnn.eval", -1, [&] {
        return model.evalLoss(src, *s.adj, s.trainEnd, src.size(),
                              cfg.spec.baseBatch);
    });
    return out;
}

/** Same batch boundaries and bit-identical losses. */
bool
sameTrajectory(const std::vector<BatchRecord> &a,
               const std::vector<BatchRecord> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (a[i].st != b[i].st || a[i].ed != b[i].ed ||
            !sameBits(a[i].loss, b[i].loss))
            return false;
    }
    return true;
}

/** Self-test corruption: nudge one loss by one ulp. */
void
corruptLoss(std::vector<BatchRecord> &batches)
{
    if (!batches.empty()) {
        double &l = batches[batches.size() / 2].loss;
        l = std::nextafter(l, 1e300);
    }
}

/** Build the set-up repeatedly; keep the last, report medians. */
struct Setups
{
    std::unique_ptr<TrainSetup> last;
    double totalS = 0.0;
    double generateS = 0.0;
    double adjacencyS = 0.0;
    double batcherS = 0.0;
    double modelS = 0.0;
};

Setups
buildSetups(const TrainConfig &cfg, uint64_t seed)
{
    std::vector<double> total, gen, adj, bat, mod;
    Setups out;
    Timer elapsed;
    for (int i = 0; moreSetups(i, elapsed.seconds()); ++i) {
        out.last.reset(); // never hold two set-ups at once
        out.last = buildSetup(cfg, seed);
        total.push_back(out.last->totalS);
        gen.push_back(out.last->generateS);
        adj.push_back(out.last->adjacencyS);
        bat.push_back(out.last->batcherS);
        mod.push_back(out.last->modelS);
    }
    out.totalS = median(total);
    out.generateS = median(gen);
    out.adjacencyS = median(adj);
    out.batcherS = median(bat);
    out.modelS = median(mod);
    return out;
}

void
checkRun(Result &res, const char *what,
         const std::vector<BatchRecord> &batches, double val_loss,
         const std::vector<BatchRecord> &ref_batches, double ref_val)
{
    res.check(sameTrajectory(batches, ref_batches) &&
                  sameBits(val_loss, ref_val),
              format("%s: batch boundaries, per-batch losses and "
                     "val_loss bit-identical to the reference run",
                     what));
}

void
untracedRun(const Args &a, const TrainConfig &cfg, Setups &setups,
            Result &res)
{
    TrainSetup &s = *setups.last;
    std::vector<SessionRun> runs;
    Timer budget;
    while (runs.size() < kMinRuns ||
           budget.seconds() + runs.back().loopS <= a.seconds) {
        runs.push_back(runSession(cfg, s, a.seed, 0));
    }

    // Every run repeats the same batches (checked below), so chunk i
    // holds the same work in every run: its fastest on-CPU time is its
    // cost with the least interference from the rest of the host.
    std::vector<double> best = runs.front().chunkMs;
    std::vector<double> wall_eps;
    size_t failures = 0, guard_trips = 0, batches = 0;
    for (SessionRun &r : runs) {
        for (size_t i = 0; i < best.size() && i < r.chunkMs.size(); ++i)
            best[i] = std::min(best[i], r.chunkMs[i]);
        wall_eps.push_back(static_cast<double>(r.events) / r.loopS);
        failures += r.failures;
        guard_trips += r.guardTrips;
        batches += r.batches.size();
    }
    const SessionRun &first = runs.front();
    if (corrupting(a, "repeat"))
        corruptLoss(runs.back().batches);
    bool repeat_ok = true;
    for (size_t i = 1; i < runs.size(); ++i) {
        repeat_ok = repeat_ok &&
                    sameTrajectory(runs[i].batches, first.batches) &&
                    sameBits(runs[i].valLoss, first.valLoss);
    }
    res.check(repeat_ok,
              format("all %zu runs: batch boundaries, per-batch losses and "
                     "val_loss bit-identical to the first run",
                     runs.size()));
    double val_loss = first.valLoss;
    if (corrupting(a, "val-loss"))
        val_loss = std::nan("");
    res.check(std::isfinite(val_loss), "val_loss is finite");
    if (corrupting(a, "guard"))
        guard_trips += 1;
    if (a.seed == kDefaultSeed) {
        res.check(guard_trips == 0,
                  format("zero numeric-guard trips at the default seed "
                         "(saw %zu)", guard_trips));
    }

    res.attempted = batches;
    res.failed = failures;
    double best_ms = 0.0;
    for (double ms : best)
        best_ms += ms;
    const double events_per_s =
        best.empty() ? first.events / first.loopCpuS
                     : kChunkEvents * best.size() / (best_ms * 1e-3);
    const double p50 = quantile(best, 0.50);
    const double p90 = quantile(best, 0.90);
    std::string loop_s;
    for (const SessionRun &r : runs) {
        loop_s += format("%s%.3f/%.3f", loop_s.empty() ? "" : " ",
                         r.loopS, r.loopCpuS);
    }
    res.note(format("runs=%zu batches_per_run=%zu events_per_run=%zu "
                    "loop_s(wall/cpu)=[%s]",
                    runs.size(), first.batches.size(), first.events,
                    loop_s.c_str()));
    res.note(format("setup medians: total=%.4fs generate=%.4fs "
                    "adjacency=%.4fs batcher=%.4fs model=%.4fs",
                    setups.totalS, setups.generateS, setups.adjacencyS,
                    setups.batcherS, setups.modelS));
    res.note(format("e2e train_events_per_s=%.1f events/s (wall; "
                    "%.1f per on-CPU second) val_loss=%.6f BCE "
                    "peak_rss_mb=%.1f MiB failed_frac=%.6f ratio; on-CPU "
                    "ms per %zu events, fastest of the runs: p50=%.3f "
                    "p90=%.3f (n=%zu)",
                    median(wall_eps), events_per_s, first.valLoss,
                    peakRssMb(),
                    batches ? static_cast<double>(failures) / batches : 0.0,
                    kChunkEvents, p50, p90, best.size()));

    res.metric("setup_s", setups.totalS, "s");
    res.metric("peak_rss_mb", peakRssMb(), "MiB");
    res.metric("throughput_per_s", events_per_s, "1/s");
    res.metric("p50_ms", p50, "ms");
    res.metric("tail_ms", p90, "ms");
    res.metric("loss", first.valLoss, "BCE");
}

void
tracedRun(const Args &a, const TrainConfig &cfg, Setups &setups,
          Result &res)
{
    TrainSetup &s = *setups.last;
    const bool pipeline = cfg.tracePipeline;

    // Untraced/traced pairs until the budget is spent; the order
    // alternates so warm-up favours neither side.
    SpanLog log(SpanLog::Clock::now(), 1);
    Timer budget;
    const SessionRun ref = runSession(cfg, s, a.seed, 0);
    const TracedRun first = runTraced(cfg, s, a.seed, &log);
    std::vector<double> untraced_s{ref.loopS}, traced_s{first.loopS};
    for (size_t i = 1; budget.seconds() + untraced_s.back() +
                               traced_s.back() <=
                           a.seconds;
         ++i) {
        SpanLog scratch(SpanLog::Clock::now(), 1);
        if (i % 2 == 1)
            traced_s.push_back(runTraced(cfg, s, a.seed, &scratch).loopS);
        untraced_s.push_back(runSession(cfg, s, a.seed, 0).loopS);
        if (i % 2 == 0)
            traced_s.push_back(runTraced(cfg, s, a.seed, &scratch).loopS);
    }

    std::vector<BatchRecord> traced_batches = first.batches;
    if (corrupting(a, "traced"))
        corruptLoss(traced_batches);
    checkRun(res, "traced loop vs untraced TrainingSession",
             traced_batches, first.valLoss, ref.batches, ref.valLoss);
    res.check(!first.badRange && first.nonFinite == 0,
              "traced loop: valid batch ranges and finite losses");

    SessionRun piped;
    if (pipeline) {
        piped = runSession(cfg, s, a.seed, kPipelineDepth);
        if (corrupting(a, "pipeline"))
            corruptLoss(piped.batches);
        checkRun(res, "pipelined run (depth 4, S=0) vs the synchronous "
                      "TrainingSession",
                 piped.batches, piped.valLoss, ref.batches, ref.valLoss);
    }
    res.attempted = ref.batches.size() + first.batches.size() +
                    piped.batches.size();
    res.failed = ref.failures + first.nonFinite + piped.failures;

    if (!a.traceOut.empty() && !writeTraceEvents(a.traceOut, {&log}))
        res.check(false, "write the trace file " + a.traceOut);

    // Self time per span; the glue spans' self time is the uncovered
    // part of the loop.
    const std::map<std::string, double> self = log.selfSeconds();
    auto selfOf = [&](const char *name) {
        auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second;
    };
    const double wall = first.loopS;
    const double eval_s = selfOf("tgnn.eval");
    const double uncovered = selfOf("train.loop") + selfOf("train.batch");
    std::map<std::string, double> layer_s;
    for (const auto &[name, sec] : self) {
        if (name != "train.loop" && name != "train.batch" &&
            name != "tgnn.eval")
            layer_s[layerOf(name)] += sec;
    }
    const double tgnn_loop_s = layer_s["tgnn"];
    const double next_p99_us =
        quantile(log.durations("core.next"), 0.99) * 1e6;
    const double overhead = median(traced_s) / median(untraced_s) - 1.0;
    const kernels::KernelStats &k = first.kernels;
    const double gflop = static_cast<double>(k.gemmFlops) * 1e-9;
    const double pool_total =
        static_cast<double>(k.poolHits + k.poolMisses);

    res.note(format("traced loop wall %.4f s (untraced median %.4f s, "
                    "traced median %.4f s over %zu pairs); eval %.4f s",
                    wall, median(untraced_s), median(traced_s),
                    traced_s.size(), eval_s));
    res.note("span                    self_s     share_of_loop_wall");
    for (const auto &[name, sec] : self) {
        if (name != "tgnn.eval")
            res.note(format("  %-22s %9.4f  %6.2f%%", name.c_str(), sec,
                            100.0 * sec / wall));
    }
    for (const auto &[layer, sec] : layer_s) {
        res.note(format("layer %-8s self_s=%.4f share=%.2f%%",
                        layer.c_str(), sec, 100.0 * sec / wall));
    }
    res.note(format("layer uncovered self_s=%.4f share=%.2f%%", uncovered,
                    100.0 * uncovered / wall));
    res.note(format("core.batcher_build_s=%.4f core.next_s=%.4f "
                    "core.next_p99_us=%.2f core.feedback_s=%.4f "
                    "sim.device_s=%.6f tgnn.forward_s=%.4f "
                    "tgnn.backward_s=%.4f tgnn.writeback_s=%.4f "
                    "tgnn.eval_s=%.4f train.snapshot_encode_s=%.4f "
                    "train.uncovered_s=%.4f",
                    setups.batcherS, selfOf("core.next"), next_p99_us,
                    selfOf("core.feedback"), first.deviceS,
                    selfOf("tgnn.forward"), selfOf("tgnn.backward"),
                    selfOf("tgnn.writeback"), eval_s,
                    selfOf("train.snapshot_encode"), uncovered));
    if (pipeline) {
        res.note(format("pipelined run: loop %.4f s (%.1f events/s; the "
                        "synchronous run took %.4f s), pipeline.stall_s=%.4f",
                        piped.loopS, piped.events / piped.loopS, ref.loopS,
                        piped.pipelineStallS));
    }
    const double covered_limit =
        corrupting(a, "coverage") ? 0.0 : 0.10 * wall;
    res.check(uncovered <= covered_limit,
              format("layer spans cover >= 90%% of the traced loop wall "
                     "(uncovered %.2f%%)",
                     100.0 * uncovered / wall));

    res.metric("graph.generate_s", setups.generateS, "s");
    res.metric("graph.adjacency_s", setups.adjacencyS, "s");
    res.metric("trace.loop_wall_s", wall, "s");
    res.metric("trace.overhead_frac", overhead, "ratio");
    res.metric("trace.uncovered_share", uncovered / wall, "ratio");
    res.metric("core.build_share", setups.batcherS / setups.totalS,
               "ratio");
    res.metric("core.next_share", selfOf("core.next") / wall, "ratio");
    res.metric("core.feedback_share", selfOf("core.feedback") / wall,
               "ratio");
    res.metric("core.table_bytes",
               static_cast<double>(s.batcher->diffuser().tableBytes()),
               "bytes");
    res.metric("core.batches", static_cast<double>(first.batches.size()),
               "count");
    res.metric("core.avg_batch_events",
               first.batches.empty()
                   ? 0.0
                   : static_cast<double>(s.trainEnd * kEpochs) /
                         static_cast<double>(first.batches.size()),
               "events");
    res.metric("core.stable_ratio", first.stableRatio, "ratio");
    res.metric("core.maxr", static_cast<double>(first.maxr), "count");
    res.metric("sim.utilization", first.utilization, "ratio");
    res.metric("tgnn.forward_share", selfOf("tgnn.forward") / wall,
               "ratio");
    res.metric("tgnn.backward_share", selfOf("tgnn.backward") / wall,
               "ratio");
    res.metric("tgnn.writeback_share", selfOf("tgnn.writeback") / wall,
               "ratio");
    res.metric("tgnn.eval_share", eval_s / wall, "ratio");
    res.metric("tensor.gemm_calls", static_cast<double>(k.gemmCalls),
               "count");
    res.metric("tensor.gemm_gflop", gflop, "GFLOP");
    res.metric("tensor.gemm_gflop_per_s",
               tgnn_loop_s > 0 ? gflop / tgnn_loop_s : 0.0, "GFLOP/s");
    res.metric("tensor.pool_hits", static_cast<double>(k.poolHits),
               "count");
    res.metric("tensor.pool_misses", static_cast<double>(k.poolMisses),
               "count");
    res.metric("tensor.pool_hit_rate",
               pool_total > 0 ? k.poolHits / pool_total : 0.0, "ratio");
    res.metric("train.snapshot_share",
               selfOf("train.snapshot_encode") / wall, "ratio");
    res.metric("pipeline.stall_frac",
               pipeline ? piped.pipelineStallS / piped.loopS : 0.0,
               "ratio");
    res.metric("pipeline.model_occupancy", piped.modelOccupancy, "ratio");
    res.metric("pipeline.update_occupancy", piped.updateOccupancy,
               "ratio");
    res.metric("serve.replay_share", 0.0, "ratio");
    res.metric("serve.apply_share", 0.0, "ratio");
    res.metric("serve.query_share", 0.0, "ratio");
    res.metric("serve.resync_frac", 0.0, "ratio");
    res.metric("serve.snapshots", 0.0, "count");
}

} // namespace

void
runTrainWorkload(const Args &a, Result &res)
{
    ThreadPool::setGlobalThreads(kPoolThreads);
    const TrainConfig cfg = configFor(a);
    Setups setups = buildSetups(cfg, a.seed);
    res.note(format("workload %s: %zu events (train %zu), %zu nodes, "
                    "model dim %zu, %zu epochs",
                    a.workload.c_str(), setups.last->src->size(),
                    setups.last->trainEnd, setups.last->numNodes,
                    cfg.model.memoryDim, kEpochs));
    if (a.trace)
        tracedRun(a, cfg, setups, res);
    else
        untracedRun(a, cfg, setups, res);
}

} // namespace perfbench
