/**
 * @file
 * Packed, thread-pool-parallel kernel implementations.
 *
 * This translation unit is compiled with elevated optimization flags
 * (see src/tensor/CMakeLists.txt): the GEMM microkernel is written
 * with GCC vector extensions sized to the compile target's SIMD
 * registers, and the other kernels as plain loops the compiler
 * vectorizes. Everything observable — accumulation order per output
 * element, banding, tail handling — is independent of those flags'
 * *structure*; see the determinism contract in kernels.hh.
 */

#include "tensor/kernels.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "obs/metrics.hh"
#include "util/logging.hh"
#include "util/parallel.hh"
#include "util/thread_annotations.hh"

namespace cascade {
namespace kernels {

namespace {

/* ------------------------------------------------------------------ */
/* Counters                                                            */

std::atomic<uint64_t> gemmCalls{0};
std::atomic<uint64_t> gemmFlops{0};
std::atomic<uint64_t> elementwiseCalls{0};
std::atomic<uint64_t> poolHits{0};
std::atomic<uint64_t> poolMisses{0};
std::atomic<uint64_t> poolReturns{0};
std::atomic<uint64_t> poolEvictions{0};
std::atomic<uint64_t> poolCachedBytes{0};

struct BoundInstruments
{
    std::atomic<obs::Counter *> gemmCalls{nullptr};
    std::atomic<obs::Counter *> gemmFlops{nullptr};
    std::atomic<obs::Counter *> elementwiseCalls{nullptr};
    std::atomic<obs::Counter *> poolHits{nullptr};
    std::atomic<obs::Counter *> poolMisses{nullptr};
};

BoundInstruments bound;

inline void
bump(std::atomic<uint64_t> &local, std::atomic<obs::Counter *> &ctr,
     uint64_t n = 1)
{
    local.fetch_add(n, std::memory_order_relaxed);
    if (obs::Counter *c = ctr.load(std::memory_order_relaxed))
        c->add(n);
}

/* ------------------------------------------------------------------ */
/* Buffer pool                                                         */

/**
 * Bounded free list of float buffers. Best-fit acquire; buffers whose
 * capacity would blow the caps are dropped on release instead of
 * cached. All hot-path tensors in a training step cycle through here
 * once the autograd graph of the first batch has been torn down.
 */
class BufferPool
{
  public:
    /** A buffer of n floats, contents unspecified: a hit's resize and
     *  a miss's allocation both default-initialize (Tensor::Storage). */
    Tensor::Storage
    acquire(size_t n)
    {
        // Only the free-list scan runs under the shard mutex. The
        // pool is sharded by thread so concurrent query threads (the
        // serve read path spins hundreds of small tensors per
        // request) never contend on one free list.
        Shard &sh = shards_[shardIndex()];
        Tensor::Storage buf;
        bool hit = false;
        {
            LockGuard lock(sh.m_);
            size_t best = sh.free_.size();
            for (size_t i = 0; i < sh.free_.size(); ++i) {
                if (sh.free_[i].capacity() < n)
                    continue;
                if (best == sh.free_.size() ||
                    sh.free_[i].capacity() <
                        sh.free_[best].capacity()) {
                    best = i;
                }
            }
            if (best != sh.free_.size()) {
                buf = std::move(sh.free_[best]);
                sh.free_[best] = std::move(sh.free_.back());
                sh.free_.pop_back();
                poolCachedBytes.fetch_sub(
                    buf.capacity() * sizeof(float),
                    std::memory_order_relaxed);
                hit = true;
            }
        }
        bump(hit ? poolHits : poolMisses,
             hit ? bound.poolHits : bound.poolMisses);
        buf.resize(n);
        return buf;
    }

    void
    release(Tensor::Storage &&buf)
    {
        const size_t bytes = buf.capacity() * sizeof(float);
        if (bytes == 0)
            return;
        poolReturns.fetch_add(1, std::memory_order_relaxed);
        Shard &sh = shards_[shardIndex()];
        LockGuard lock(sh.m_);
        if (sh.free_.size() >= kMaxBuffersPerShard ||
            bytes > kMaxBufferBytes ||
            poolCachedBytes.load(std::memory_order_relaxed) + bytes >
                kMaxCachedBytes) {
            poolEvictions.fetch_add(1, std::memory_order_relaxed);
            return; // buf freed here
        }
        poolCachedBytes.fetch_add(bytes, std::memory_order_relaxed);
        sh.free_.push_back(std::move(buf));
    }

    /** Intentionally leaked: outlives every static that owns tensors. */
    static BufferPool &
    global()
    {
        static BufferPool *pool = new BufferPool();
        return *pool;
    }

  private:
    static constexpr size_t kShards = 8;
    static constexpr size_t kMaxBuffersPerShard = 64;
    static constexpr size_t kMaxBufferBytes = 64ull << 20;
    static constexpr size_t kMaxCachedBytes = 192ull << 20;

    struct Shard
    {
        AnnotatedMutex m_;
        /** The free list proper; poolCachedBytes mirrors the byte
         *  total across shards (mutations happen under the shard
         *  mutex, the atomic only exists so stats() and the caps can
         *  read it without every lock). */
        std::vector<Tensor::Storage> free_ CASCADE_GUARDED_BY(m_);
    };

    /** Stable per-thread shard. A buffer released on a different
     *  thread than it was acquired on just migrates shards — only the
     *  hit rate is affected, never correctness. */
    static size_t
    shardIndex()
    {
        static std::atomic<size_t> next{0};
        thread_local size_t idx =
            next.fetch_add(1, std::memory_order_relaxed) % kShards;
        return idx;
    }

    Shard shards_[kShards];
};

/* ------------------------------------------------------------------ */
/* GEMM core                                                           */

/** SIMD register width of the compile target, in bytes: the one
 *  constant the register tile is derived from. */
#if defined(__AVX512F__)
constexpr size_t kVecBytes = 64;
#elif defined(__AVX__)
constexpr size_t kVecBytes = 32;
#else
constexpr size_t kVecBytes = 16;
#endif

/** One SIMD register of floats (GCC vector extension). */
typedef float Vec __attribute__((vector_size(kVecBytes)));
constexpr size_t kVecFloats = kVecBytes / sizeof(float);

/**
 * Register tile: MR output rows x NR output columns, NR = two vectors.
 * The MR*2 accumulators plus two B vectors and one broadcast A value
 * must fit the vector register file: 8x2+3 = 19 of AVX-512's 32,
 * 6x2+3 = 15 of the 16 below it.
 */
constexpr size_t NV = 2;
constexpr size_t NR = NV * kVecFloats;
constexpr size_t MR = kVecBytes == 64 ? 8 : 6;

/**
 * Minimum flops *per worker* for banding to pay off. The cutover must
 * scale with the pool size: a 2^22-flop product (128x256x64) amortizes
 * fork/join fine on 1-2 workers but at 8 the per-band work drops under
 * the dispatch cost and throughput collapses (the BENCH_hotpath
 * regression: 39x over naive at 1 thread, 9x at 8). Requiring
 * flops >= threads * 2^22 keeps big products banded on every pool size
 * and runs small ones serial instead of slower-in-parallel.
 */
constexpr uint64_t kMinParallelFlopsPerThread = 1ull << 22;

inline Vec
loadVec(const float *p)
{
    Vec v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

inline void
storeVec(float *p, Vec v)
{
    std::memcpy(p, &v, sizeof v);
}

/**
 * The microkernel: one R x NR tile C (+)= Ap * Bp over the full k,
 * R <= MR. Ap holds MR floats per p (a packed row panel, of which the
 * first R are read); Bp holds NR floats per p at stride ldb (a packed
 * column panel, ldb = NR, or B read in place, ldb = n). Each
 * accumulator takes exactly one multiply-add per p = 0..k-1, in order,
 * starting from C (accumulate) or 0.
 */
template <size_t R>
inline void
microTile(size_t k, const float *Ap, const float *Bp, size_t ldb,
          float *C, size_t ldc, bool accumulate)
{
    Vec acc[R][NV];
    for (size_t i = 0; i < R; ++i)
        for (size_t v = 0; v < NV; ++v)
            acc[i][v] = accumulate ? loadVec(C + i * ldc + v * kVecFloats)
                                   : Vec{};
    for (size_t p = 0; p < k; ++p) {
        Vec b[NV];
        for (size_t v = 0; v < NV; ++v)
            b[v] = loadVec(Bp + p * ldb + v * kVecFloats);
        for (size_t i = 0; i < R; ++i) {
            const float av = Ap[p * MR + i];
            for (size_t v = 0; v < NV; ++v)
                acc[i][v] += av * b[v];
        }
    }
    for (size_t i = 0; i < R; ++i)
        for (size_t v = 0; v < NV; ++v)
            storeVec(C + i * ldc + v * kVecFloats, acc[i][v]);
}

/** Pool-backed packing scratch, 64-byte aligned, returned on scope
 *  exit. Each call owns its own; nothing is shared between calls. */
class PackBuffer
{
  public:
    explicit PackBuffer(size_t floats)
        : buf_(BufferPool::global().acquire(floats + kAlignFloats))
    {
        void *p = buf_.data();
        size_t space = buf_.size() * sizeof(float);
        data_ = static_cast<float *>(
            std::align(64, floats * sizeof(float), p, space));
    }
    ~PackBuffer() { BufferPool::global().release(std::move(buf_)); }
    PackBuffer(const PackBuffer &) = delete;
    PackBuffer &operator=(const PackBuffer &) = delete;

    float *data() const { return data_; }

  private:
    static constexpr size_t kAlignFloats = 64 / sizeof(float);
    Tensor::Storage buf_;
    float *data_ = nullptr;
};

/** Rows/cols of op(t). */
inline size_t
opRows(Trans t, const Tensor &x)
{
    return t == Trans::None ? x.rows() : x.cols();
}
inline size_t
opCols(Trans t, const Tensor &x)
{
    return t == Trans::None ? x.cols() : x.rows();
}

/**
 * One product C (+)= op(A) * op(B), C m x n row-major. The operands
 * are read as stored, through strides: op(A)[i][p] is
 * a[i*aRow + p*aCol] and op(B)[p][j] is b[p*bRow + j*bCol], so a
 * transposed operand is just a swapped stride pair.
 */
struct GemmProblem
{
    const float *a;
    size_t aRow, aCol;
    const float *b;
    size_t bRow, bCol;
    float *c;
    size_t m, k, n;
    bool accumulate;
};

/**
 * Pack a W-wide panel of k groups: dst[p*W + r] = src[r*rs + p*cs] for
 * r < valid, zero for valid <= r < W. A full panel whose rows are
 * contiguous (rs == 1) is copied W floats at a time; otherwise the
 * panel is zeroed once and filled along src's contiguous axis.
 */
template <size_t W>
void
packPanel(const float *src, size_t rs, size_t cs, size_t valid, size_t k,
          float *dst)
{
    if (rs == 1 && valid == W) {
        for (size_t p = 0; p < k; ++p)
            std::memcpy(dst + p * W, src + p * cs, W * sizeof(float));
        return;
    }
    if (valid < W)
        std::fill(dst, dst + k * W, 0.0f);
    for (size_t r = 0; r < valid; ++r) {
        const float *s = src + r * rs;
        for (size_t p = 0; p < k; ++p)
            dst[p * W + r] = s[p * cs];
    }
}

/** Rows [i0, i0+MR) of op(A), zero-padded past row m. */
void
packA(const GemmProblem &g, size_t i0, float *dst)
{
    packPanel<MR>(g.a + i0 * g.aRow, g.aRow, g.aCol,
                  std::min(MR, g.m - i0), g.k, dst);
}

/** Columns [j0, j0+NR) of op(B), zero-padded past column n. */
void
packB(const GemmProblem &g, size_t j0, float *dst)
{
    packPanel<NR>(g.b + j0 * g.bCol, g.bCol, g.bRow,
                  std::min(NR, g.n - j0), g.k, dst);
}

/**
 * Output tile at (i0, j0), R rows tall, from a packed A panel and a B
 * panel at stride ldb. Edge tiles run the same microkernel on a local
 * R x NR copy of the valid region (zero elsewhere), so every element
 * sees the same arithmetic wherever its tile boundary falls.
 */
template <size_t R>
void
computeTileRows(const GemmProblem &g, size_t i0, size_t j0,
                const float *Ap, const float *Bp, size_t ldb)
{
    const size_t im = std::min(R, g.m - i0);
    const size_t jn = std::min(NR, g.n - j0);
    float *C = g.c + i0 * g.n + j0;
    if (im == R && jn == NR) {
        microTile<R>(g.k, Ap, Bp, ldb, C, g.n, g.accumulate);
        return;
    }
    alignas(64) float tile[R * NR] = {};
    if (g.accumulate)
        for (size_t i = 0; i < im; ++i)
            std::memcpy(tile + i * NR, C + i * g.n, jn * sizeof(float));
    microTile<R>(g.k, Ap, Bp, ldb, tile, NR, g.accumulate);
    for (size_t i = 0; i < im; ++i)
        std::memcpy(C + i * g.n, tile + i * NR, jn * sizeof(float));
}

/** A tile of at most MR/2 live rows (the serve path's 4-row queries,
 *  a product's last row tile) runs a half-height kernel instead of
 *  multiplying padding: serve-live's throughput is about 1.16x that of
 *  the full-height tile on the zero-padded panel. */
void
computeTile(const GemmProblem &g, size_t i0, size_t j0, const float *Ap,
            const float *Bp, size_t ldb)
{
    if (g.m - i0 <= MR / 2)
        computeTileRows<MR / 2>(g, i0, j0, Ap, Bp, ldb);
    else
        computeTileRows<MR>(g, i0, j0, Ap, Bp, ldb);
}

/**
 * Row tiles [tile_lo, tile_hi) against every packed column panel. Each
 * row tile's A panel is packed into this band's own scratch and used
 * against all column panels before the next is packed.
 */
void
gemmTiles(const GemmProblem &g, const float *Bpack, size_t tile_lo,
          size_t tile_hi)
{
    PackBuffer apack(g.k * MR);
    for (size_t t = tile_lo; t < tile_hi; ++t) {
        packA(g, t * MR, apack.data());
        for (size_t j0 = 0; j0 < g.n; j0 += NR)
            computeTile(g, t * MR, j0, apack.data(), Bpack + j0 * g.k,
                        NR);
    }
}

/**
 * A product that fits one row tile (the serve path's few-row queries):
 * B is read in place where its rows are contiguous, so the O(k*n) pack
 * does not dwarf the O(m*k*n) multiply. A transposed B, and the last
 * partial column panel of a plain one, are packed one panel at a time.
 */
void
gemmSingleTile(const GemmProblem &g)
{
    const size_t in_place = g.bCol == 1 ? g.n / NR * NR : 0;
    PackBuffer pack(g.k * MR + (in_place < g.n ? g.k * NR : 0));
    float *apack = pack.data(), *bpack = apack + g.k * MR;
    packA(g, 0, apack);
    for (size_t j0 = 0; j0 < in_place; j0 += NR)
        computeTile(g, 0, j0, apack, g.b + j0, g.bRow);
    for (size_t j0 = in_place; j0 < g.n; j0 += NR) {
        packB(g, j0, bpack);
        computeTile(g, 0, j0, apack, bpack, NR);
    }
}

/**
 * C (+)= op(A) * op(B) over the thread pool. op(B) is packed once into
 * NR-column panels; row tiles are banded deterministically across
 * workers, each band packing its own A panels.
 */
void
gemmPacked(const GemmProblem &g)
{
    if (g.m == 0 || g.n == 0)
        return;
    if (g.k == 0) { // empty sums: C keeps its value, or becomes 0
        if (!g.accumulate)
            std::fill(g.c, g.c + g.m * g.n, 0.0f);
        return;
    }
    if (g.m <= MR) {
        gemmSingleTile(g);
        return;
    }
    const size_t tiles = (g.m + MR - 1) / MR;
    const size_t panels = (g.n + NR - 1) / NR;
    PackBuffer bpack(panels * g.k * NR);
    for (size_t jp = 0; jp < panels; ++jp)
        packB(g, jp * NR, bpack.data() + jp * g.k * NR);

    const uint64_t flops = 2ull * g.m * g.k * g.n;
    // globalThreadsRequested, not globalThreads: the heuristic must
    // not force the pool into existence in processes that will only
    // ever take the serial branch (fork()ed single-thread workers).
    const uint64_t workers =
        std::max<uint64_t>(1, ThreadPool::globalThreadsRequested());
    if (flops >= workers * kMinParallelFlopsPerThread &&
        !ThreadPool::inWorker()) {
        parallelForChunks(
            0, tiles,
            [&](size_t lo, size_t hi) {
                gemmTiles(g, bpack.data(), lo, hi);
            },
            /*grain=*/1);
    } else {
        gemmTiles(g, bpack.data(), 0, tiles);
    }
}

/** Blocked out-of-place transpose (dst = src^T, src r x c). */
void
transposeInto(const float *src, float *dst, size_t r, size_t c)
{
    constexpr size_t TB = 32;
    for (size_t i0 = 0; i0 < r; i0 += TB) {
        const size_t i1 = std::min(r, i0 + TB);
        for (size_t j0 = 0; j0 < c; j0 += TB) {
            const size_t j1 = std::min(c, j0 + TB);
            for (size_t i = i0; i < i1; ++i)
                for (size_t j = j0; j < j1; ++j)
                    dst[j * r + i] = src[i * c + j];
        }
    }
}

/** Shared gemm/gemmAcc body; out must be pre-shaped m x n. */
void
gemmInto(Trans ta, Trans tb, const Tensor &a, const Tensor &b,
         Tensor &out, bool accumulate)
{
    const size_t m = opRows(ta, a), k = opCols(ta, a), n = opCols(tb, b);
    CASCADE_CHECK(opRows(tb, b) == k, "gemm inner dim mismatch");
    CASCADE_CHECK(out.rows() == m && out.cols() == n,
                  "gemm output shape mismatch");
    bump(gemmCalls, bound.gemmCalls);
    bump(gemmFlops, bound.gemmFlops, 2ull * m * k * n);
    const bool at = ta == Trans::Transpose, bt = tb == Trans::Transpose;
    gemmPacked({a.data(), at ? 1 : k, at ? m : 1, b.data(), bt ? 1 : n,
                bt ? k : 1, out.data(), m, k, n, accumulate});
}

} // namespace

/* ------------------------------------------------------------------ */
/* Public API                                                          */

void
gemm(Trans ta, Trans tb, const Tensor &a, const Tensor &b, Tensor &out)
{
    // Before the reshape: recycling an aliased out would free the
    // caller's input.
    CASCADE_CHECK(&out != &a && &out != &b, "gemm output aliases input");
    const size_t m = opRows(ta, a), n = opCols(tb, b);
    if (out.rows() != m || out.cols() != n) {
        recycle(std::move(out));
        out = uninit(m, n);
    }
    gemmInto(ta, tb, a, b, out, /*accumulate=*/false);
}

void
gemmAcc(Trans ta, Trans tb, const Tensor &a, const Tensor &b,
        Tensor &out)
{
    CASCADE_CHECK(&out != &a && &out != &b, "gemm output aliases input");
    gemmInto(ta, tb, a, b, out, /*accumulate=*/true);
}

Tensor
gemm(Trans ta, Trans tb, const Tensor &a, const Tensor &b)
{
    Tensor out = uninit(opRows(ta, a), opCols(tb, b));
    gemmInto(ta, tb, a, b, out, /*accumulate=*/false);
    return out;
}

void
transpose(const Tensor &a, Tensor &out)
{
    CASCADE_CHECK(&out != &a, "transpose output aliases input");
    if (out.rows() != a.cols() || out.cols() != a.rows()) {
        recycle(std::move(out));
        out = uninit(a.cols(), a.rows());
    }
    transposeInto(a.data(), out.data(), a.rows(), a.cols());
}

/* ------------------------------------------------------------------ */
/* Pooled tensors                                                      */

Tensor
zeros(size_t rows, size_t cols)
{
    Tensor t = uninit(rows, cols);
    t.fill(0.0f);
    return t;
}

Tensor
uninit(size_t rows, size_t cols)
{
    return Tensor::fromStorage(rows, cols,
                               BufferPool::global().acquire(rows * cols));
}

Tensor
copyOf(const Tensor &src)
{
    Tensor t = uninit(src.rows(), src.cols());
    if (src.size() > 0)
        std::memcpy(t.data(), src.data(), src.size() * sizeof(float));
    return t;
}

void
recycle(Tensor &&t)
{
    BufferPool::global().release(std::move(t).takeData());
}

/* ------------------------------------------------------------------ */
/* Elementwise / reduction kernels                                     */

namespace {

inline void
checkBinary(const Tensor &a, const Tensor &b, Tensor &out,
            const char *what)
{
    CASCADE_CHECK(a.sameShape(b), what);
    CASCADE_CHECK(out.sameShape(a), what);
}

} // namespace

void
add(const Tensor &a, const Tensor &b, Tensor &out)
{
    checkBinary(a, b, out, "kernels::add shape mismatch");
    bump(elementwiseCalls, bound.elementwiseCalls);
    const float *x = a.data(), *y = b.data();
    float *o = out.data();
    for (size_t i = 0; i < a.size(); ++i)
        o[i] = x[i] + y[i];
}

void
sub(const Tensor &a, const Tensor &b, Tensor &out)
{
    checkBinary(a, b, out, "kernels::sub shape mismatch");
    bump(elementwiseCalls, bound.elementwiseCalls);
    const float *x = a.data(), *y = b.data();
    float *o = out.data();
    for (size_t i = 0; i < a.size(); ++i)
        o[i] = x[i] - y[i];
}

void
hadamard(const Tensor &a, const Tensor &b, Tensor &out)
{
    checkBinary(a, b, out, "kernels::hadamard shape mismatch");
    bump(elementwiseCalls, bound.elementwiseCalls);
    const float *x = a.data(), *y = b.data();
    float *o = out.data();
    for (size_t i = 0; i < a.size(); ++i)
        o[i] = x[i] * y[i];
}

void
scale(const Tensor &a, float s, Tensor &out)
{
    CASCADE_CHECK(out.sameShape(a), "kernels::scale shape mismatch");
    bump(elementwiseCalls, bound.elementwiseCalls);
    const float *x = a.data();
    float *o = out.data();
    for (size_t i = 0; i < a.size(); ++i)
        o[i] = x[i] * s;
}

void
axpy(float alpha, const Tensor &x, Tensor &y)
{
    CASCADE_CHECK(x.sameShape(y), "kernels::axpy shape mismatch");
    bump(elementwiseCalls, bound.elementwiseCalls);
    const float *xs = x.data();
    float *ys = y.data();
    for (size_t i = 0; i < x.size(); ++i)
        ys[i] += alpha * xs[i];
}

void
rowSum(const Tensor &a, Tensor &out)
{
    CASCADE_CHECK(out.rows() == a.rows() && out.cols() == 1,
                  "kernels::rowSum output must be Rx1");
    bump(elementwiseCalls, bound.elementwiseCalls);
    for (size_t r = 0; r < a.rows(); ++r) {
        const float *row = a.row(r);
        float acc = 0.0f;
        for (size_t c = 0; c < a.cols(); ++c)
            acc += row[c];
        out.at(r, 0) = acc;
    }
}

void
colSum(const Tensor &a, Tensor &out)
{
    CASCADE_CHECK(out.rows() == 1 && out.cols() == a.cols(),
                  "kernels::colSum output must be 1xC");
    bump(elementwiseCalls, bound.elementwiseCalls);
    float *o = out.data();
    std::memset(o, 0, a.cols() * sizeof(float));
    for (size_t r = 0; r < a.rows(); ++r) {
        const float *row = a.row(r);
        for (size_t c = 0; c < a.cols(); ++c)
            o[c] += row[c];
    }
}

double
cosineOverwrite(float *dst, const float *src, size_t n)
{
    double dot = 0.0, nd = 0.0, ns = 0.0;
    for (size_t i = 0; i < n; ++i) {
        const double d = dst[i], s = src[i];
        dot += d * s;
        nd += d * d;
        ns += s * s;
        dst[i] = src[i];
    }
    if (nd < 1e-24 && ns < 1e-24)
        return 1.0;
    if (nd < 1e-24 || ns < 1e-24)
        return 0.0;
    return dot / (std::sqrt(nd) * std::sqrt(ns));
}

/* ------------------------------------------------------------------ */
/* Stats / metrics                                                     */

KernelStats
stats()
{
    KernelStats s;
    s.gemmCalls = gemmCalls.load(std::memory_order_relaxed);
    s.gemmFlops = gemmFlops.load(std::memory_order_relaxed);
    s.elementwiseCalls =
        elementwiseCalls.load(std::memory_order_relaxed);
    s.poolHits = poolHits.load(std::memory_order_relaxed);
    s.poolMisses = poolMisses.load(std::memory_order_relaxed);
    s.poolReturns = poolReturns.load(std::memory_order_relaxed);
    s.poolEvictions = poolEvictions.load(std::memory_order_relaxed);
    s.poolCachedBytes =
        poolCachedBytes.load(std::memory_order_relaxed);
    return s;
}

void
resetStats()
{
    gemmCalls.store(0, std::memory_order_relaxed);
    gemmFlops.store(0, std::memory_order_relaxed);
    elementwiseCalls.store(0, std::memory_order_relaxed);
    poolHits.store(0, std::memory_order_relaxed);
    poolMisses.store(0, std::memory_order_relaxed);
    poolReturns.store(0, std::memory_order_relaxed);
    poolEvictions.store(0, std::memory_order_relaxed);
}

void
bindMetrics(obs::MetricsRegistry &registry)
{
    bound.gemmCalls.store(&registry.counter("kernels.gemm.calls"),
                          std::memory_order_relaxed);
    bound.gemmFlops.store(&registry.counter("kernels.gemm.flops"),
                          std::memory_order_relaxed);
    bound.elementwiseCalls.store(
        &registry.counter("kernels.elementwise.calls"),
        std::memory_order_relaxed);
    bound.poolHits.store(&registry.counter("kernels.pool.hits"),
                         std::memory_order_relaxed);
    bound.poolMisses.store(&registry.counter("kernels.pool.misses"),
                           std::memory_order_relaxed);
}

void
unbindMetrics()
{
    bound.gemmCalls.store(nullptr, std::memory_order_relaxed);
    bound.gemmFlops.store(nullptr, std::memory_order_relaxed);
    bound.elementwiseCalls.store(nullptr, std::memory_order_relaxed);
    bound.poolHits.store(nullptr, std::memory_order_relaxed);
    bound.poolMisses.store(nullptr, std::memory_order_relaxed);
}

} // namespace kernels

} // namespace cascade
