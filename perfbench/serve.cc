/**
 * @file
 * Serving workload: serve-live.
 *
 * TGN (untrained parameters from the seed) serves a WIKI stream. Set-up
 * replays the first third of the events into a ServeEngine. The live
 * phase then runs one writer thread that applies the rest in kWindow
 * event windows on a fixed open-loop schedule spread over --seconds,
 * and kServeReaders reader threads, each with its own ServeReader,
 * that send open-loop queries alternating between a kQueryRows-node
 * embed and a kQueryRows-pair scoreLinks. Latency is timed from each
 * query's due time, so a stall also delays the queries behind it.
 *
 * Untraced: the readers run the fixed rates kLowQps and kHighQps, then
 * bisect for the highest rate whose p99 stays within kP99LimitMs with
 * no query left unsent at the end of the probe (no growing backlog).
 * Traced: the high rate once untraced and once under spans, and the
 * writer under spans throughout.
 *
 * Served answers must be byte-identical to offline embedNodes /
 * scoreLinks on a replica holding the same snapshot, before and after
 * the live phase.
 */

#include <algorithm>
#include <barrier>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>

#include "bench.hh"
#include "graph/dataset.hh"
#include "serve/engine.hh"
#include "tgnn/serialize.hh"
#include "util/parallel.hh"
#include "util/timer.hh"

namespace perfbench {

using namespace cascade;

namespace {

using Clock = std::chrono::steady_clock;
using Seconds = std::chrono::duration<double>;

constexpr size_t kWindow = 64;    ///< events per writer window
constexpr size_t kQueryRows = 4;  ///< nodes (or pairs) per query
/**
 * Offered rates of the fixed phases, ~25% and ~55% of the closed-loop
 * capacity measured for this workload on the parent commit (README).
 * Fixed constants, so two commits are compared at the same load.
 */
constexpr double kLowQps = 1750.0;
constexpr double kHighQps = 4200.0;
constexpr double kP99LimitMs = 2.0;
/** Bisection steps of the max-rate search. */
constexpr int kSearchProbes = 3;
/**
 * Windowed statistics: p99 (and closed-loop throughput) per window of
 * at least kTailWindowS seconds and kTailSamples queries, median across
 * the windows. A vCPU preemption of a few milliseconds then moves one
 * window, not the phase's figure.
 */
constexpr double kTailWindowS = 0.25;
constexpr double kTailSamples = 1000.0;
/** Upcoming true links scored for the served-quality loss. */
constexpr size_t kQualityPairs = 512;
/** How long before a window's due time the sleeping writer spins. */
constexpr auto kWriterSpin = std::chrono::milliseconds(2);
/** Closed-loop queries each reader sends before the first phase. */
constexpr size_t kWarmupQueries = 200;

/** Offered-load plan of one phase, written by the main thread. */
struct Plan
{
    bool stop = false;
    double qps = 0.0;
    Clock::time_point start;
    double durationS = 0.0;
    /** Serve every due query even after the end (fixed phases). */
    bool drain = true;
    /** Back-to-back queries until the end; qps is then measured. */
    bool closedLoop = false;
    bool traced = false;
};

struct Sample
{
    double dueS = 0.0;      ///< due time, seconds after the phase start
    double latencyMs = 0.0; ///< completion - due; +inf if the answer failed
    double serviceMs = 0.0; ///< completion - start
    double lagMs = 0.0;     ///< start - due (generator lateness)
    bool resync = false;    ///< syncedVersion() changed across the query
    bool ok = true;
};

struct PhaseOut
{
    std::vector<Sample> samples;
    size_t unsent = 0; ///< due before the probe ended, never sent
    double busyS = 0.0;
};

/** Everything serving needs, built from the seed. */
struct ServeSetup
{
    std::unique_ptr<VectorEventSource> src;
    std::unique_ptr<TemporalAdjacency> adj;
    std::unique_ptr<TgnnModel> model;
    std::unique_ptr<ServeEngine> engine; ///< declared last: dies first
    size_t prefix = 0;

    double generateS = 0.0;
    double adjacencyS = 0.0;
    double replayS = 0.0;
    double totalS = 0.0;
};

std::unique_ptr<ServeSetup>
buildSetup(const Args &a)
{
    auto s = std::make_unique<ServeSetup>();
    const DatasetSpec spec = wikiSpec(a.toy ? 400.0 : 10.0);
    Timer total;
    Timer t;
    Rng rng(a.seed);
    s->src = std::make_unique<VectorEventSource>(generateDataset(spec, rng));
    s->generateS = t.seconds();
    t.reset();
    s->adj = std::make_unique<TemporalAdjacency>(*s->src);
    s->adjacencyS = t.seconds();
    t.reset();
    const size_t num_nodes = std::max(spec.numNodes, s->src->numNodes());
    s->model = std::make_unique<TgnnModel>(tgnConfig(a.toy ? 16 : 128),
                                           num_nodes, s->src->featDim(),
                                           a.seed + 1);
    t.reset();
    s->engine = std::make_unique<ServeEngine>(*s->model, *s->src, *s->adj,
                                              0);
    s->prefix = s->src->size() / 3;
    s->engine->applyEvents(s->prefix, kWindow);
    s->replayS = t.seconds();
    s->totalS = total.seconds();
    return s;
}

bool
bitEqual(const Tensor &a, const Tensor &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/**
 * A fresh reader's embed/scoreLinks answers against offline
 * TgnnModel::embedNodes/scoreLinks on a replica restored from the
 * snapshot the reader served from.
 */
bool
matchesOffline(ServeEngine &engine, const std::vector<NodeId> &a,
               const std::vector<NodeId> &b, bool corrupt)
{
    ServeReader reader(engine);
    Tensor emb = reader.embed(a);
    const Tensor score = reader.scoreLinks(a, b);
    const std::shared_ptr<const ServeSnapshot> snap = reader.current();

    const TgnnModel &m = engine.model();
    TgnnModel offline(m.config(), m.numNodes(), m.edgeFeatDim(), m.seed());
    ByteWriter w;
    writeParametersBlob(w, m.parameters());
    ByteReader r(w.buffer());
    if (!readParametersBlob(r, offline.parameters()))
        return false;
    offline.restoreState(snap->state);
    const EventIdx before = static_cast<EventIdx>(snap->appliedEvents);
    const Tensor off_emb = offline.embedNodes(a, snap->lastTs, engine.data(),
                                              engine.adj(), before);
    const Tensor off_score = offline.scoreLinks(
        a, b, snap->lastTs, engine.data(), engine.adj(), before);
    if (corrupt && emb.size() > 0) {
        uint32_t bits;
        std::memcpy(&bits, emb.data(), sizeof bits);
        bits ^= 1u;
        std::memcpy(emb.data(), &bits, sizeof bits);
    }
    return bitEqual(emb, off_emb) && bitEqual(score, off_score);
}

/** Endpoints of kQueryRows random events: degree-weighted nodes. */
void
pickNodes(const EventSource &src, Rng &rng, std::vector<NodeId> &srcs,
          std::vector<NodeId> &dsts)
{
    for (size_t i = 0; i < kQueryRows; ++i) {
        const Event e =
            src.event(static_cast<EventIdx>(rng.uniformInt(src.size())));
        srcs[i] = e.src;
        dsts[i] = e.dst;
    }
}

double
softplus(double x)
{
    return std::max(x, 0.0) + std::log1p(std::exp(-std::fabs(x)));
}

/**
 * Served-answer quality: BCE of scoreLinks logits for the next
 * kQualityPairs true links of the stream against seeded negatives.
 */
double
servedLoss(ServeSetup &s, uint64_t seed)
{
    ServeReader reader(*s.engine);
    const size_t n = std::min(kQualityPairs, s.src->size() - s.prefix);
    std::vector<NodeId> srcs(n), dsts(n), negs(n);
    Rng rng(seed + 5);
    for (size_t i = 0; i < n; ++i) {
        const Event e = s.src->event(static_cast<EventIdx>(s.prefix + i));
        srcs[i] = e.src;
        dsts[i] = e.dst;
        negs[i] = static_cast<NodeId>(rng.uniformInt(s.model->numNodes()));
    }
    const Tensor pos = reader.scoreLinks(srcs, dsts);
    const Tensor neg = reader.scoreLinks(srcs, negs);
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i)
        sum += softplus(-pos.data()[i]) + softplus(neg.data()[i]);
    return sum / static_cast<double>(2 * n);
}

/**
 * Spin until `due`. The readers never sleep: on a virtual machine a
 * sleeping vCPU can take milliseconds to be scheduled again, and that
 * wake-up would be charged to the server as latency.
 */
void
waitUntil(Clock::time_point due)
{
    while (Clock::now() < due) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
    }
}

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** One reader's share of a phase: every kServeReaders-th due slot. */
void
runPhase(ServeReader &reader, const EventSource &src, size_t idx,
         const Plan &plan, Rng &rng, SpanLog &log, PhaseOut &out)
{
    const double period =
        plan.closedLoop ? 0.0 : static_cast<double>(kServeReaders) / plan.qps;
    const double offset = period * static_cast<double>(idx) /
                          static_cast<double>(kServeReaders);
    const auto end = plan.start + std::chrono::duration_cast<
                                      Clock::duration>(Seconds(plan.durationS));
    const size_t total = plan.closedLoop || plan.durationS <= offset
        ? 0
        : static_cast<size_t>(std::ceil((plan.durationS - offset) / period));
    std::vector<NodeId> nodes(kQueryRows), dsts(kQueryRows);
    SpanLog *spans = plan.traced ? &log : nullptr;
    if (plan.closedLoop)
        waitUntil(plan.start);
    for (size_t j = 0; plan.closedLoop || j < total; ++j) {
        const auto now = Clock::now();
        if (plan.closedLoop && now >= end)
            break;
        if (!plan.drain && now >= end) {
            out.unsent += total - j;
            break;
        }
        const auto due = plan.closedLoop
            ? now
            : plan.start + std::chrono::duration_cast<Clock::duration>(
                               Seconds(offset + period * static_cast<double>(j)));
        waitUntil(due);
        pickNodes(src, rng, nodes, dsts);
        const bool embed = j % 2 == 0;
        const uint64_t version = reader.syncedVersion();
        const auto t0 = Clock::now();
        Sample smp;
        smp.dueS = Seconds(due - plan.start).count();
        try {
            SpanLog::Scope span(spans, embed ? "serve.embed" : "serve.score");
            const Tensor ans = embed ? reader.embed(nodes)
                                     : reader.scoreLinks(nodes, dsts);
            smp.ok = ans.rows() == kQueryRows && ans.cols() > 0 &&
                     (embed || ans.cols() == 1);
            for (size_t i = 0; smp.ok && i < ans.size(); ++i)
                smp.ok = std::isfinite(ans.data()[i]);
        } catch (const std::exception &) {
            smp.ok = false;
        }
        const auto t1 = Clock::now();
        smp.serviceMs = msBetween(t0, t1);
        smp.lagMs = msBetween(due, t0);
        smp.latencyMs = smp.ok ? msBetween(due, t1)
                               : std::numeric_limits<double>::infinity();
        smp.resync = reader.syncedVersion() != version;
        out.busyS += smp.serviceMs * 1e-3;
        out.samples.push_back(smp);
    }
}

/** Latency summary of one phase across all readers. */
struct PhaseStats
{
    double qps = 0.0;
    size_t sent = 0;
    size_t failed = 0;
    size_t unsent = 0;
    double p50 = 0.0;
    /** Median over the phase's tail windows of each window's p99. */
    double p99 = 0.0;
    double p99All = 0.0; ///< p99 over the whole phase
    double p90 = 0.0;
    double busyS = 0.0;
    double maxLagMs = 0.0; ///< how late the generator ran
    bool pass = false;
    std::vector<Sample> samples;
};

PhaseStats
summarize(const Plan &plan, const std::vector<PhaseOut> &outs)
{
    PhaseStats st;
    st.qps = plan.qps;
    if (plan.closedLoop) {
        // Completed queries per kTailWindowS window, median window.
        const size_t windows = std::max<size_t>(
            1, static_cast<size_t>(plan.durationS / kTailWindowS));
        std::vector<double> done(windows, 0.0);
        for (const PhaseOut &o : outs) {
            for (const Sample &s : o.samples) {
                const size_t w = static_cast<size_t>(s.dueS / kTailWindowS);
                if (w < windows)
                    done[w] += 1.0 / kTailWindowS;
            }
        }
        st.qps = median(done);
    }
    // Windows of at least kTailSamples queries, so each window's p99
    // has ten samples beyond it.
    const double window_s = std::max(kTailWindowS, kTailSamples / std::max(st.qps, 1.0));
    const size_t windows = std::max<size_t>(
        1, static_cast<size_t>(plan.durationS / window_s));
    std::vector<std::vector<double>> by_window(windows);
    std::vector<double> lat;
    for (const PhaseOut &o : outs) {
        st.unsent += o.unsent;
        st.busyS += o.busyS;
        for (const Sample &s : o.samples) {
            lat.push_back(s.latencyMs);
            by_window[std::min(windows - 1,
                               static_cast<size_t>(s.dueS / window_s))]
                .push_back(s.latencyMs);
            st.failed += s.ok ? 0 : 1;
            st.maxLagMs = std::max(st.maxLagMs, s.lagMs);
            st.samples.push_back(s);
        }
    }
    st.sent = lat.size();
    // A query the generator never got to send missed the limit too.
    const double never = std::numeric_limits<double>::infinity();
    lat.insert(lat.end(), st.unsent, never);
    by_window.back().insert(by_window.back().end(), st.unsent, never);
    std::vector<double> window_p99;
    for (const std::vector<double> &w : by_window)
        window_p99.push_back(quantile(w, 0.99));
    st.p50 = quantile(lat, 0.50);
    st.p99All = quantile(lat, 0.99);
    st.p90 = quantile(lat, 0.90);
    st.p99 = median(window_p99);
    st.pass = st.p99 <= kP99LimitMs && st.failed == 0 &&
              st.unsent <= st.sent / 100;
    return st;
}

/**
 * The live phase: the writer applies the un-replayed suffix over
 * `live_s` seconds while the readers run `next_plan`'s phases one by
 * one (it returns a plan with stop set when done). Reader threads are
 * persistent, so a phase change never re-creates a ServeReader.
 */
class LiveRun
{
  public:
    LiveRun(ServeSetup &s, uint64_t seed, Clock::time_point epoch,
            bool trace_writer)
        : s_(s), seed_(seed), writerLog_(epoch, 0), traceWriter_(trace_writer),
          sync_(static_cast<std::ptrdiff_t>(kServeReaders + 1))
    {
        for (size_t i = 0; i < kServeReaders; ++i)
            readerLogs_.emplace_back(epoch, static_cast<int>(i + 1));
        outs_.resize(kServeReaders);
    }

    LiveRun(const LiveRun &) = delete;
    LiveRun &operator=(const LiveRun &) = delete;

    template <class NextPlan>
    std::vector<PhaseStats>
    run(double live_s, NextPlan next_plan)
    {
        const size_t windows =
            (s_.src->size() - s_.prefix + kWindow - 1) / kWindow;
        std::vector<std::thread> readers;
        for (size_t i = 0; i < kServeReaders; ++i)
            readers.emplace_back([this, i] { readerMain(i); });
        sync_.arrive_and_wait(); // readers warmed up
        const auto t0 = Clock::now() + std::chrono::milliseconds(5);
        std::thread writer([&] { writerMain(t0, live_s, windows); });

        std::vector<PhaseStats> phases;
        Clock::time_point start = t0;
        for (;;) {
            plan_ = next_plan(phases, start);
            for (PhaseOut &o : outs_)
                o = PhaseOut{};
            sync_.arrive_and_wait(); // plan posted
            if (plan_.stop)
                break;
            sync_.arrive_and_wait(); // phase done
            phases.push_back(summarize(plan_, outs_));
            start = Clock::now() + std::chrono::milliseconds(5);
        }
        for (std::thread &t : readers)
            t.join();
        writer.join();
        return phases;
    }

    const std::vector<double> &freshMs() const { return freshMs_; }
    const std::vector<double> &applyMs() const { return applyMs_; }
    const SpanLog &writerLog() const { return writerLog_; }
    const std::vector<SpanLog> &readerLogs() const { return readerLogs_; }
    bool writerFailed() const { return writerFailed_; }
    uint64_t snapshots() const { return snapshots_; }

  private:
    void
    writerMain(Clock::time_point t0, double live_s, size_t windows)
    {
        const uint64_t v0 = s_.engine->snapshot()->version;
        SpanLog *spans = traceWriter_ ? &writerLog_ : nullptr;
        try {
            for (size_t k = 0; k < windows; ++k) {
                const auto due =
                    t0 + std::chrono::duration_cast<Clock::duration>(Seconds(
                             live_s * static_cast<double>(k + 1) /
                             static_cast<double>(windows)));
                // The writer is idle ~99% of the time: it sleeps, and
                // spins only the last kWriterSpin before each window.
                std::this_thread::sleep_until(due - kWriterSpin);
                waitUntil(due);
                const auto a0 = Clock::now();
                traced(spans, "serve.apply", static_cast<int64_t>(k),
                       [&] { s_.engine->applyEvents(kWindow, kWindow); });
                const auto a1 = Clock::now();
                freshMs_.push_back(msBetween(due, a1));
                applyMs_.push_back(msBetween(a0, a1));
            }
        } catch (const std::exception &) {
            writerFailed_ = true;
        }
        snapshots_ = s_.engine->snapshot()->version - v0;
    }

    void
    readerMain(size_t idx)
    {
        Rng rng(seed_ * 7919 + 101 + idx);
        std::unique_ptr<ServeReader> reader;
        try {
            reader = std::make_unique<ServeReader>(*s_.engine);
            // Untimed warm-up: first sync, buffer pool and caches.
            std::vector<NodeId> nodes(kQueryRows), dsts(kQueryRows);
            for (size_t q = 0; q < kWarmupQueries; ++q) {
                pickNodes(*s_.src, rng, nodes, dsts);
                if (q % 2 == 0)
                    reader->embed(nodes);
                else
                    reader->scoreLinks(nodes, dsts);
            }
        } catch (const std::exception &) {
            // Still take part in every phase barrier; every query of a
            // reader that cannot exist counts as failed.
        }
        sync_.arrive_and_wait(); // warmed up
        for (;;) {
            sync_.arrive_and_wait();
            if (plan_.stop)
                return;
            PhaseOut &out = outs_[idx];
            if (reader) {
                runPhase(*reader, *s_.src, idx, plan_, rng,
                         readerLogs_[idx], out);
            } else {
                Sample failed;
                failed.ok = false;
                failed.latencyMs = std::numeric_limits<double>::infinity();
                out.samples.push_back(failed);
            }
            sync_.arrive_and_wait();
        }
    }

    ServeSetup &s_;
    uint64_t seed_;
    SpanLog writerLog_;
    std::vector<SpanLog> readerLogs_;
    bool traceWriter_;
    std::barrier<> sync_;
    Plan plan_;
    std::vector<PhaseOut> outs_;
    std::vector<double> freshMs_;
    std::vector<double> applyMs_;
    bool writerFailed_ = false;
    uint64_t snapshots_ = 0;
};

Plan
fixedPhase(Clock::time_point start, double qps, double duration_s,
           bool traced)
{
    Plan p;
    p.qps = qps;
    p.start = start;
    p.durationS = duration_s;
    p.traced = traced;
    return p;
}

/** Probe nodes for the offline comparison: endpoints of early events. */
void
probeNodes(const EventSource &src, std::vector<NodeId> &a,
           std::vector<NodeId> &b)
{
    for (size_t i = 0; i < kQueryRows; ++i) {
        const Event e = src.event(static_cast<EventIdx>(i * 97 % src.size()));
        a.push_back(e.src);
        b.push_back(e.dst);
    }
}

struct Setups
{
    std::unique_ptr<ServeSetup> last;
    double totalS = 0.0;
    double generateS = 0.0;
    double adjacencyS = 0.0;
    double replayS = 0.0;
};

Setups
buildSetups(const Args &a)
{
    std::vector<double> total, gen, adj, replay;
    Setups out;
    Timer elapsed;
    for (int i = 0; moreSetups(i, elapsed.seconds()); ++i) {
        out.last.reset(); // never hold two set-ups at once
        out.last = buildSetup(a);
        total.push_back(out.last->totalS);
        gen.push_back(out.last->generateS);
        adj.push_back(out.last->adjacencyS);
        replay.push_back(out.last->replayS);
    }
    out.totalS = median(total);
    out.generateS = median(gen);
    out.adjacencyS = median(adj);
    out.replayS = median(replay);
    return out;
}

void
checkOffline(const Args &a, ServeSetup &s, Result &res, const char *when)
{
    std::vector<NodeId> pa, pb;
    probeNodes(*s.src, pa, pb);
    res.check(matchesOffline(*s.engine, pa, pb,
                             corrupting(a, "serve-offline")),
              format("served embed/scoreLinks byte-identical to offline "
                     "embedNodes/scoreLinks on the same snapshot (%s)",
                     when));
}

void
checkDrained(ServeSetup &s, const LiveRun &live, Result &res)
{
    res.check(!live.writerFailed() && s.engine->pendingEvents() == 0,
              "writer applied every live event");
}

std::string
summaryLine(const char *what, const PhaseStats &p)
{
    return format("%s: offered %.0f q/s, sent %zu, unsent %zu, failed %zu, "
                  "p50 %.4f ms, p90 %.4f ms, windowed p99 %.4f ms "
                  "(whole-phase p99 %.4f ms), %s",
                  what, p.qps, p.sent, p.unsent, p.failed, p.p50, p.p90,
                  p.p99, p.p99All,
                  p.pass ? "meets the limit" : "misses the limit");
}

void
untracedRun(const Args &a, Setups &setups, Result &res)
{
    ServeSetup &s = *setups.last;
    checkOffline(a, s, res, "before the live phase");
    const double loss = servedLoss(s, a.seed);

    // Phases: low and high fixed rates, closed-loop capacity, then a
    // bisection for the highest rate within the limit, bracketed by
    // the best fixed rate that met it and the capacity.
    double lo = 0.0; // highest rate that met the limit
    double hi = 0.0;
    LiveRun live(s, a.seed, Clock::now(), false);
    const std::vector<PhaseStats> phases = live.run(
        a.seconds, [&](const std::vector<PhaseStats> &done,
                       Clock::time_point start) {
            const size_t n = done.size();
            if (n == 0)
                return fixedPhase(start, kLowQps, 0.2 * a.seconds, false);
            if (n == 1)
                return fixedPhase(start, kHighQps, 0.3 * a.seconds, false);
            if (n == 2) {
                Plan p = fixedPhase(start, 0.0, 0.2 * a.seconds, false);
                p.closedLoop = true;
                return p;
            }
            if (n == 3) {
                lo = done[1].pass ? kHighQps : done[0].pass ? kLowQps : 0.0;
                hi = done[2].qps;
            } else if (done.back().pass) {
                lo = done.back().qps;
            } else {
                hi = done.back().qps;
            }
            Plan p;
            if (n >= 3 + kSearchProbes || hi <= lo) {
                p.stop = true;
                return p;
            }
            const double floor = lo > 0.0 ? lo : 0.5 * kLowQps;
            p = fixedPhase(start, std::sqrt(floor * hi),
                           0.3 * a.seconds / kSearchProbes, false);
            p.drain = false;
            return p;
        });
    checkDrained(s, live, res);
    checkOffline(a, s, res, "after the live phase");

    const PhaseStats &low = phases[0];
    const PhaseStats &high = phases[1];
    size_t sent = 0, failed = 0, resync = 0;
    for (const PhaseStats &p : phases) {
        sent += p.sent;
        failed += p.failed;
        for (const Sample &smp : p.samples)
            resync += smp.resync ? 1 : 0;
    }
    const PhaseStats &capacity = phases[2];
    res.note(summaryLine("low", low));
    res.note(summaryLine("high", high));
    res.note(summaryLine("closed loop", capacity));
    for (size_t i = 3; i < phases.size(); ++i)
        res.note(summaryLine(format("probe %zu", i - 2).c_str(), phases[i]));
    res.note(format("setup medians: total=%.4fs generate=%.4fs "
                    "adjacency=%.4fs replay=%.4fs",
                    setups.totalS, setups.generateS, setups.adjacencyS,
                    setups.replayS));
    res.note(format("e2e serve_p50_ms_low=%.4f ms serve_p99_ms_low=%.4f ms "
                    "serve_p50_ms_high=%.4f ms serve_p99_ms_high=%.4f ms "
                    "serve_max_qps=%.1f q/s serve_capacity_qps=%.1f q/s "
                    "serve_fresh_p99_ms=%.4f ms "
                    "(p90 %.4f, n=%zu) peak_rss_mb=%.1f MiB "
                    "failed_frac=%.6f ratio loss=%.6f BCE",
                    low.p50, low.p99, high.p50, high.p99, lo, capacity.qps,
                    quantile(live.freshMs(), 0.99),
                    quantile(live.freshMs(), 0.90), live.freshMs().size(),
                    peakRssMb(),
                    sent ? static_cast<double>(failed) / sent : 0.0, loss));
    res.note(format("snapshots=%llu resync_frac=%.5f gen_lag_ms_max=%.4f "
                    "(fixed-rate phases)",
                    static_cast<unsigned long long>(live.snapshots()),
                    sent ? static_cast<double>(resync) / sent : 0.0,
                    std::max(low.maxLagMs, high.maxLagMs)));

    res.attempted = sent;
    res.failed = failed;
    res.metric("setup_s", setups.totalS, "s");
    res.metric("peak_rss_mb", peakRssMb(), "MiB");
    res.metric("throughput_per_s", capacity.qps, "1/s");
    res.metric("p50_ms", high.p50, "ms");
    res.metric("tail_ms", high.p90, "ms");
    res.metric("loss", loss, "BCE");
}

void
tracedRun(const Args &a, Setups &setups, Result &res)
{
    ServeSetup &s = *setups.last;
    checkOffline(a, s, res, "before the live phase");

    // The high rate untraced, then traced; the writer is traced
    // throughout (it is busy a few percent of the time).
    const double half_s = 0.5 * a.seconds;
    const auto epoch = Clock::now();
    kernels::KernelStats k0, k1;
    double traced_wall = 0.0;
    LiveRun live(s, a.seed, epoch, true);
    Clock::time_point traced_start;
    const std::vector<PhaseStats> phases = live.run(
        a.seconds, [&](const std::vector<PhaseStats> &done,
                       Clock::time_point start) {
            Plan p;
            if (done.size() == 0)
                return fixedPhase(start, kHighQps, half_s, false);
            if (done.size() == 1) {
                traced_start = start;
                k0 = kernels::stats();
                return fixedPhase(start, kHighQps, half_s, true);
            }
            k1 = kernels::stats();
            traced_wall = Seconds(Clock::now() - traced_start).count();
            p.stop = true;
            return p;
        });
    checkDrained(s, live, res);
    checkOffline(a, s, res, "after the live phase");

    const PhaseStats &untraced = phases[0];
    const PhaseStats &tr = phases[1];
    auto meanService = [](const PhaseStats &p) {
        double sum = 0.0;
        for (const Sample &smp : p.samples)
            sum += smp.serviceMs;
        return p.samples.empty() ? 0.0 : sum / p.samples.size();
    };
    std::vector<double> steady, resync;
    for (const Sample &smp : tr.samples)
        (smp.resync ? resync : steady).push_back(smp.serviceMs);
    const double overhead = meanService(tr) / meanService(untraced) - 1.0;

    // Writer busy time inside the traced phase window.
    const double t_lo = Seconds(traced_start - epoch).count();
    const double t_hi = t_lo + traced_wall;
    double writer_in_window = 0.0, writer_total = 0.0;
    for (const SpanLog::Span &sp : live.writerLog().spans()) {
        writer_total += sp.end - sp.start;
        if (sp.start >= t_lo && sp.start < t_hi)
            writer_in_window += sp.end - sp.start;
    }
    const double live_wall = a.seconds;
    const double covered = tr.busyS + writer_in_window;
    const double uncovered_share =
        1.0 - covered / (traced_wall * (kServeReaders + 1));
    const kernels::KernelStats k = kernelDelta(k0, k1);
    const double gflop = static_cast<double>(k.gemmFlops) * 1e-9;
    const double pool_total = static_cast<double>(k.poolHits + k.poolMisses);

    if (!a.traceOut.empty()) {
        std::vector<const SpanLog *> logs{&live.writerLog()};
        for (const SpanLog &l : live.readerLogs())
            logs.push_back(&l);
        if (!writeTraceEvents(a.traceOut, logs))
            res.check(false, "write the trace file " + a.traceOut);
    }

    res.note(summaryLine("high untraced", untraced));
    res.note(summaryLine("high traced", tr));
    res.note(format("serve.apply_ms_p50=%.4f serve.apply_ms_p99=%.4f "
                    "serve.query_steady_ms_p99=%.4f "
                    "serve.query_resync_ms_p99=%.4f serve.resync_frac=%.5f "
                    "serve.snapshots=%llu serve.gen_lag_ms_max=%.4f "
                    "trace.overhead_frac=%.4f",
                    quantile(live.applyMs(), 0.50),
                    quantile(live.applyMs(), 0.99), quantile(steady, 0.99),
                    quantile(resync, 0.99),
                    tr.samples.empty()
                        ? 0.0
                        : static_cast<double>(resync.size()) /
                              tr.samples.size(),
                    static_cast<unsigned long long>(live.snapshots()),
                    std::max(untraced.maxLagMs, tr.maxLagMs), overhead));
    res.note(format("layer serve (writer) busy %.4f s = %.2f%% of the "
                    "%.1f s live wall; layer serve (readers) busy %.4f s "
                    "= %.2f%% of %zu x %.3f s traced wall; idle %.2f%%",
                    writer_total, 100.0 * writer_total / live_wall,
                    live_wall, tr.busyS,
                    100.0 * tr.busyS / (traced_wall * kServeReaders),
                    kServeReaders, traced_wall, 100.0 * uncovered_share));

    res.attempted = untraced.sent + tr.sent;
    res.failed = untraced.failed + tr.failed;
    res.metric("graph.generate_s", setups.generateS, "s");
    res.metric("graph.adjacency_s", setups.adjacencyS, "s");
    res.metric("trace.loop_wall_s", traced_wall, "s");
    res.metric("trace.overhead_frac", overhead, "ratio");
    res.metric("trace.uncovered_share", uncovered_share, "ratio");
    res.metric("core.build_share", 0.0, "ratio");
    res.metric("core.next_share", 0.0, "ratio");
    res.metric("core.feedback_share", 0.0, "ratio");
    res.metric("core.table_bytes", 0.0, "bytes");
    res.metric("core.batches", 0.0, "count");
    res.metric("core.avg_batch_events", 0.0, "events");
    res.metric("core.stable_ratio", 0.0, "ratio");
    res.metric("core.maxr", 0.0, "count");
    res.metric("sim.utilization", 0.0, "ratio");
    res.metric("tgnn.forward_share", 0.0, "ratio");
    res.metric("tgnn.backward_share", 0.0, "ratio");
    res.metric("tgnn.writeback_share", 0.0, "ratio");
    res.metric("tgnn.eval_share", 0.0, "ratio");
    res.metric("tensor.gemm_calls", static_cast<double>(k.gemmCalls),
               "count");
    res.metric("tensor.gemm_gflop", gflop, "GFLOP");
    res.metric("tensor.gemm_gflop_per_s", covered > 0 ? gflop / covered : 0.0,
               "GFLOP/s");
    res.metric("tensor.pool_hits", static_cast<double>(k.poolHits), "count");
    res.metric("tensor.pool_misses", static_cast<double>(k.poolMisses),
               "count");
    res.metric("tensor.pool_hit_rate",
               pool_total > 0 ? k.poolHits / pool_total : 0.0, "ratio");
    res.metric("train.snapshot_share", 0.0, "ratio");
    res.metric("pipeline.stall_frac", 0.0, "ratio");
    res.metric("pipeline.model_occupancy", 0.0, "ratio");
    res.metric("pipeline.update_occupancy", 0.0, "ratio");
    res.metric("serve.replay_share", setups.replayS / setups.totalS, "ratio");
    res.metric("serve.apply_share", writer_total / live_wall, "ratio");
    res.metric("serve.query_share",
               tr.busyS / (traced_wall * kServeReaders), "ratio");
    res.metric("serve.resync_frac",
               tr.samples.empty() ? 0.0
                                  : static_cast<double>(resync.size()) /
                                        tr.samples.size(),
               "ratio");
    res.metric("serve.snapshots", static_cast<double>(live.snapshots()),
               "count");
}

} // namespace

void
runServeWorkload(const Args &a, Result &res)
{
    ThreadPool::setGlobalThreads(kPoolThreads);
    Setups setups = buildSetups(a);
    res.note(format("workload serve-live: %zu events, %zu replayed in "
                    "set-up, %zu live in %zu-event windows, %zu readers",
                    setups.last->src->size(), setups.last->prefix,
                    setups.last->src->size() - setups.last->prefix,
                    kWindow, kServeReaders));
    if (a.trace)
        tracedRun(a, setups, res);
    else
        untracedRun(a, setups, res);
}

} // namespace perfbench
