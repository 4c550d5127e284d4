#include "train/collective.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace cascade {

std::pair<size_t, size_t>
shardSlice(size_t st, size_t ed, size_t shards, size_t s)
{
    CASCADE_CHECK(shards > 0 && s < shards, "shardSlice: bad shard");
    CASCADE_CHECK(st <= ed, "shardSlice: bad range");
    const size_t b = ed - st;
    return {st + s * b / shards, st + (s + 1) * b / shards};
}

uint64_t
shardSeed(uint64_t seed, uint64_t globalBatch, size_t shard)
{
    // splitmix64 over the three inputs; any avalanche mix works as
    // long as it is fixed forever (trajectory-defining).
    uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (globalBatch + 1) +
                 0xbf58476d1ce4e5b9ULL * (static_cast<uint64_t>(shard) + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

MergedUpdate
mergeShardResults(std::vector<ShardResult> results)
{
    std::sort(results.begin(), results.end(),
              [](const ShardResult &a, const ShardResult &b) {
                  return a.shard < b.shard;
              });
    MergedUpdate u;
    size_t total = 0;
    for (const ShardResult &r : results)
        total += r.numEvents;
    CASCADE_CHECK(total > 0, "mergeShardResults: empty batch");

    const size_t scalars =
        results.empty() ? 0 : results.front().grads.size();
    // Double accumulators: the narrowing to float happens once, after
    // the fixed-order sum, so the result is independent of how the
    // shards were grouped onto workers.
    std::vector<double> acc(scalars, 0.0);
    for (const ShardResult &r : results) {
        CASCADE_CHECK(r.grads.size() == scalars,
                      "mergeShardResults: gradient width mismatch");
        const double w =
            static_cast<double>(r.numEvents) / static_cast<double>(total);
        u.result.loss += r.loss * w;
        u.result.rankAccuracy += r.rankAccuracy * w;
        u.result.workRows += r.workRows;
        u.result.sampledNeighbors += r.sampledNeighbors;
        for (size_t i = 0; i < scalars; ++i)
            acc[i] += w * static_cast<double>(r.grads[i]);
    }
    u.result.numEvents = total;

    u.grads.resize(scalars);
    for (size_t i = 0; i < scalars; ++i)
        u.grads[i] = static_cast<float>(acc[i]);

    u.writebacks.reserve(results.size());
    for (ShardResult &r : results) {
        if (r.writeback.active)
            u.writebacks.push_back(std::move(r.writeback));
    }
    return u;
}

StepResult
applyMergedUpdate(TgnnModel &model, const EventSource &data,
                  MergedUpdate &update)
{
    StepResult result = update.result;
    // The optimizer's pass returns the squared-gradient sum it read.
    result.gradNorm = std::sqrt(model.applyMergedGradients(update.grads));
    for (TgnnModel::PendingWriteback &wb : update.writebacks) {
        std::vector<double> cos = model.applyWriteback(data, wb);
        result.updatedNodes.insert(result.updatedNodes.end(),
                                   wb.nodes.begin(), wb.nodes.end());
        result.memCosine.insert(result.memCosine.end(), cos.begin(),
                                cos.end());
    }
    return result;
}

namespace {

void
writeWriteback(ByteWriter &w, const TgnnModel::PendingWriteback &wb)
{
    w.u8(wb.active ? 1 : 0);
    if (!wb.active)
        return;
    w.f64(wb.writeTs);
    w.u64(wb.st);
    w.u64(wb.ed);
    w.u64(wb.nodes.size());
    for (NodeId n : wb.nodes)
        w.u64(static_cast<uint64_t>(n));
    w.u64(wb.values.rows());
    w.u64(wb.values.cols());
    if (wb.values.size() > 0) {
        w.bytes(wb.values.data(),
                wb.values.size() * sizeof(float));
    }
}

bool
readWriteback(ByteReader &r, TgnnModel::PendingWriteback &wb)
{
    uint8_t active = 0;
    if (!r.u8(active))
        return false;
    wb.active = active != 0;
    if (!wb.active)
        return true;
    uint64_t st = 0, ed = 0, count = 0, rows = 0, cols = 0;
    if (!r.f64(wb.writeTs) || !r.u64(st) || !r.u64(ed) ||
        !r.u64(count)) {
        return false;
    }
    wb.st = static_cast<size_t>(st);
    wb.ed = static_cast<size_t>(ed);
    if (count > r.remaining() / sizeof(uint64_t))
        return false;
    wb.nodes.resize(static_cast<size_t>(count));
    for (size_t i = 0; i < wb.nodes.size(); ++i) {
        uint64_t n = 0;
        if (!r.u64(n))
            return false;
        wb.nodes[i] = static_cast<NodeId>(n);
    }
    if (!r.u64(rows) || !r.u64(cols))
        return false;
    const uint64_t scalars = rows * cols;
    if (cols != 0 && rows > r.remaining() / (cols * sizeof(float)))
        return false;
    wb.values = Tensor(static_cast<size_t>(rows),
                       static_cast<size_t>(cols));
    if (scalars > 0 &&
        !r.bytes(wb.values.data(),
                 static_cast<size_t>(scalars) * sizeof(float))) {
        return false;
    }
    return true;
}

bool
readFloats(ByteReader &r, std::vector<float> &out)
{
    uint64_t count = 0;
    if (!r.u64(count) || count > r.remaining() / sizeof(float))
        return false;
    out.resize(static_cast<size_t>(count));
    return out.empty() ||
           r.bytes(out.data(), out.size() * sizeof(float));
}

} // namespace

void
writeShardResult(ByteWriter &w, const ShardResult &r)
{
    w.u32(r.shard);
    w.f64(r.loss);
    w.u64(r.numEvents);
    w.f64(r.rankAccuracy);
    w.u64(r.workRows);
    w.u64(r.sampledNeighbors);
    w.u64(r.grads.size());
    if (!r.grads.empty())
        w.bytes(r.grads.data(), r.grads.size() * sizeof(float));
    writeWriteback(w, r.writeback);
}

bool
readShardResult(ByteReader &r, ShardResult &out)
{
    uint64_t events = 0, rows = 0, nbrs = 0;
    if (!r.u32(out.shard) || !r.f64(out.loss) || !r.u64(events) ||
        !r.f64(out.rankAccuracy) || !r.u64(rows) || !r.u64(nbrs)) {
        return false;
    }
    out.numEvents = static_cast<size_t>(events);
    out.workRows = static_cast<size_t>(rows);
    out.sampledNeighbors = static_cast<size_t>(nbrs);
    return readFloats(r, out.grads) && readWriteback(r, out.writeback);
}

void
writeMergedUpdate(ByteWriter &w, const MergedUpdate &u)
{
    w.f64(u.result.loss);
    w.u64(u.result.numEvents);
    w.u64(u.grads.size());
    if (!u.grads.empty())
        w.bytes(u.grads.data(), u.grads.size() * sizeof(float));
    w.u64(u.writebacks.size());
    for (const TgnnModel::PendingWriteback &wb : u.writebacks)
        writeWriteback(w, wb);
}

bool
readMergedUpdate(ByteReader &r, MergedUpdate &out)
{
    uint64_t events = 0, count = 0;
    if (!r.f64(out.result.loss) || !r.u64(events))
        return false;
    out.result.numEvents = static_cast<size_t>(events);
    if (!readFloats(r, out.grads))
        return false;
    if (!r.u64(count) || count > r.remaining())
        return false;
    out.writebacks.resize(static_cast<size_t>(count));
    for (TgnnModel::PendingWriteback &wb : out.writebacks) {
        if (!readWriteback(r, wb))
            return false;
    }
    return true;
}

} // namespace cascade
