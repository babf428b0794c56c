#include "tensor/ops.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/thread_pool.hpp"

namespace aero::tensor {

namespace {

// Chunking floors for the pool dispatches below. Grains derive only
// from these constants and tensor shapes — never from the thread count
// — which is what keeps results bitwise identical for any AERO_THREADS
// (see util/thread_pool.hpp and DESIGN.md §11). Values are work-per-
// chunk floors so tiny tensors take the serial single-chunk fast path.
constexpr std::int64_t kElemGrain = 16384;        ///< cheap elementwise ops
constexpr std::int64_t kMinChunkFlops = 1 << 16;  ///< mul-adds per chunk
constexpr std::int64_t kMinChunkExp = 1 << 11;    ///< transcendentals/chunk

/// Applies `fn` elementwise producing a fresh tensor. `grain` is
/// kMinChunkExp for maps that evaluate a transcendental per element.
template <typename Fn>
Tensor map(const Tensor& a, Fn fn, std::int64_t grain = kElemGrain) {
    Tensor out = a;
    float* po = out.data();
    util::parallel_for(0, out.size(), grain,
                       [&](std::int64_t lo, std::int64_t hi) {
                           for (std::int64_t i = lo; i < hi; ++i) {
                               po[i] = fn(po[i]);
                           }
                       });
    return out;
}

/// Combines two same-shaped tensors elementwise (`grain` as for map).
template <typename Fn>
Tensor zip(const Tensor& a, const Tensor& b, Fn fn,
           std::int64_t grain = kElemGrain) {
    assert(a.same_shape(b));
    Tensor out = a;
    const float* pb = b.data();
    float* po = out.data();
    util::parallel_for(0, out.size(), grain,
                       [&](std::int64_t lo, std::int64_t hi) {
                           for (std::int64_t i = lo; i < hi; ++i) {
                               po[i] = fn(po[i], pb[i]);
                           }
                       });
    return out;
}

/// Overflow-proof logistic: the exp argument is always <= 0, so extreme
/// logits saturate to exactly 0/1 without an inf intermediate (the
/// naive 1/(1+exp(-x)) form computes exp(+big) = inf for very negative
/// x before the division collapses it).
float stable_sigmoid(float x) {
    if (x >= 0.0f) return 1.0f / (1.0f + std::exp(-x));
    const float e = std::exp(x);
    return e / (1.0f + e);
}

/// Product of extents before `axis` (outer) and after `axis` (inner).
void outer_inner(const std::vector<int>& shape, int axis, int* outer,
                 int* inner) {
    *outer = 1;
    *inner = 1;
    for (int i = 0; i < axis; ++i) *outer *= shape[static_cast<std::size_t>(i)];
    for (std::size_t i = static_cast<std::size_t>(axis) + 1; i < shape.size();
         ++i) {
        *inner *= shape[i];
    }
}

// Register tiles (DESIGN.md §11). A lane group is kLanes output elements
// whose accumulators sit side by side: consecutive channels of a
// convolution, consecutive columns of a matrix product. The innermost
// step of every tiled kernel updates a tile of independent lane
// accumulators, held in registers, from one shared operand load. Each
// output element still receives exactly the additions of the kernel's
// direct loop, in that loop's order, so the results are memcmp-identical
// to it (tests/test_tensor.cpp keeps the direct loops as the reference).
constexpr int kLanes = 8;

/// Positions, input channels or rows per tile. With 8 lanes a tile is 8
/// SSE accumulators, which leaves registers for the shared operand.
constexpr int kTile = 4;

template <int L>
using Lanes = std::integral_constant<int, L>;

template <int T>
using Tile = std::integral_constant<int, T>;

int lane_groups(int channels) { return (channels + kLanes - 1) / kLanes; }

/// A convolution or matrix product with less work than this (mul-adds,
/// whole conv lane groups counted) runs as one chunk on the calling
/// thread. The tiled kernels do about 9-10 GMAC/s on one core on the
/// UNet's 3x3 convs (7.5-9.5 over its whole conv stack, BM_UNetConvStack
/// at AERO_THREADS=1) and 4-7 on square products (BM_MatMul/64 and /128),
/// so that is about 0.05-0.13 ms: below it a pool dispatch saves little,
/// and on a loaded host a descheduled worker stalls the whole call (the
/// batch-1 encoder convs and the condition encoder's products are
/// thousands of such calls per fit()).
constexpr std::int64_t kMinParallelFlops = 1 << 19;

/// Grain for a kernel split into `units` units of `unit_flops` each: a
/// single chunk below kMinParallelFlops, else the usual per-chunk floor
/// rounded up to a multiple of `whole` units.
std::int64_t tiled_grain(std::int64_t units, std::int64_t unit_flops,
                         std::int64_t whole = 1) {
    if (units * unit_flops < kMinParallelFlops) return units;
    const std::int64_t grain = util::grain_for(unit_flops, kMinChunkFlops);
    return (grain + whole - 1) / whole * whole;
}

/// Calls fn(Lanes<L>{}, c) over channels [first, last) in ascending
/// blocks: 8-wide while 8 remain, then one 4-wide block if 4 remain,
/// then 1-wide blocks.
template <typename Fn>
void for_each_lane_block(int first, int last, Fn&& fn) {
    for (; last - first >= kLanes; first += kLanes) fn(Lanes<kLanes>{}, first);
    if (last - first >= 4) {
        fn(Lanes<4>{}, first);
        first += 4;
    }
    for (; first < last; ++first) fn(Lanes<1>{}, first);
}

/// Calls fn(Tile<T>{}, i) over [first, last) in ascending tiles: kTile
/// wide while kTile remain, then one tile of the remainder.
template <typename Fn>
void for_each_tile(int first, int last, Fn&& fn) {
    for (; last - first >= kTile; first += kTile) fn(Tile<kTile>{}, first);
    switch (last - first) {
        case 3: fn(Tile<3>{}, first); break;
        case 2: fn(Tile<2>{}, first); break;
        case 1: fn(Tile<1>{}, first); break;
        default: break;
    }
}

/// Forces a tile helper or lambda inline: a tile's accumulators stay in
/// registers only while every access to them is inlined into one loop.
#define AERO_ALWAYS_INLINE __attribute__((always_inline))

/// Calls fn(std::integral_constant<int, I>{}) for I = 0 .. N-1. Tile
/// indices are compile-time constants, so -O2 can keep a tile in
/// registers.
template <int N, typename Fn>
AERO_ALWAYS_INLINE inline void unroll(Fn&& fn) {
    [&]<int... I>(std::integer_sequence<int, I...>) AERO_ALWAYS_INLINE {
        (fn(std::integral_constant<int, I>{}), ...);
    }(std::make_integer_sequence<int, N>{});
}

/// Four floats in one SSE register (a GCC/Clang vector extension). Its
/// arithmetic compiles to the same mulps/addps that -O2 vectorizes a
/// float loop into (no FMA at the x86-64 baseline), so every product and
/// sum rounds as the scalar loop's does. Unlike a float array tile,
/// which -O2 keeps on the stack, a tile of these stays in registers.
typedef float F4 __attribute__((vector_size(16)));

/// L channels side by side: L / 4 vectors, or one float when L == 1.
template <int L>
struct LaneVec {
    using Part = std::conditional_t<L == 1, float, F4>;
    static constexpr int kParts = L == 1 ? 1 : L / 4;
    Part part[kParts];
};

template <int L>
AERO_ALWAYS_INLINE inline LaneVec<L> load_lanes(const float* p) {
    LaneVec<L> v;
    unroll<LaneVec<L>::kParts>([&](auto i) AERO_ALWAYS_INLINE {
        std::memcpy(&v.part[i], p + i * 4, sizeof v.part[i]);
    });
    return v;
}

/// Stores the L lanes of `v` to p[0 .. L).
template <int L>
AERO_ALWAYS_INLINE inline void store_row(const LaneVec<L>& v, float* p) {
    unroll<LaneVec<L>::kParts>([&](auto i) AERO_ALWAYS_INLINE {
        std::memcpy(p + i * 4, &v.part[i], sizeof v.part[i]);
    });
}

/// `s` in every lane of one part of a LaneVec.
template <typename Part>
AERO_ALWAYS_INLINE inline Part splat(float s) {
    if constexpr (std::is_same_v<Part, float>) {
        return s;
    } else {
        return Part{s, s, s, s};
    }
}

/// acc += s * v, lane by lane.
template <int L>
AERO_ALWAYS_INLINE inline void add_product(LaneVec<L>& acc, float s,
                                           const LaneVec<L>& v) {
    unroll<LaneVec<L>::kParts>([&](auto i) AERO_ALWAYS_INLINE {
        acc.part[i] += s * v.part[i];
    });
}

/// Stores lane l of `v` to base[l * stride].
template <int L>
AERO_ALWAYS_INLINE inline void store_lanes(const LaneVec<L>& v, float* base,
                                           int stride) {
    unroll<L>([&](auto l) AERO_ALWAYS_INLINE {
        if constexpr (L == 1) {
            base[0] = v.part[0];
        } else {
            base[l * stride] = v.part[l / 4][l % 4];
        }
    });
}

/// [batch][rows][cols] -> [batch][cols][rows]: moves a channel axis
/// innermost so that one lane group reads contiguous floats.
Tensor transpose_inner(const Tensor& a, int batch, int rows, int cols) {
    Tensor out({batch, cols, rows});
    const float* pa = a.data();
    float* po = out.data();
    for (int b = 0; b < batch; ++b) {
        const float* src = pa + b * rows * cols;
        float* dst = po + b * rows * cols;
        for (int r = 0; r < rows; ++r) {
            for (int col = 0; col < cols; ++col) {
                dst[col * rows + r] = src[r * cols + col];
            }
        }
    }
    return out;
}

/// A matrix product out = A·B for the tiled kernels below. Element
/// (i, kk) of A is a[i * a_row + kk * a_col]: a_col = 1 reads A by rows,
/// a_row = 1 down its columns. Row kk of B starts at b + kk * b_row and
/// row i of out at out + i * out_row.
struct Product {
    const float* a;
    int a_row, a_col;
    const float* b;
    int b_row;
    float* out;
    int out_row;
    int k;  ///< inner extent
    int n;  ///< columns of B and out

    /// The same product from row i on.
    Product from_row(int i) const {
        Product p = *this;
        p.a += i * a_row;
        p.out += i * out_row;
        return p;
    }
};

/// Rows [0, T) and columns [j0, j0 + L) of `pr`: each element is +0,
/// then a(i, kk) * b(kk, j) over kk ascending. Each k step loads one
/// segment of B row kk for the whole tile and broadcasts one A entry per
/// row. With SkipZero a zero A entry adds its term masked to +0 instead
/// of being skipped: the sum starts at +0 and never becomes -0, so that
/// leaves its bits unchanged, as the skip does, and a non-finite B entry
/// never reaches it through a zero A entry.
template <bool SkipZero, int L, int T>
void product_tile(const Product& pr, int j0) {
    using Part = typename LaneVec<L>::Part;
    LaneVec<L> acc[T];
    unroll<T>([&](auto p) AERO_ALWAYS_INLINE { acc[p] = LaneVec<L>{}; });
    for (int kk = 0; kk < pr.k; ++kk) {
        const LaneVec<L> bv = load_lanes<L>(pr.b + kk * pr.b_row + j0);
        const float* a_k = pr.a + kk * pr.a_col;
        unroll<T>([&](auto p) AERO_ALWAYS_INLINE {
            if constexpr (SkipZero) {
                const Part av = splat<Part>(a_k[p * pr.a_row]);
                const auto live = av != Part{};
                unroll<LaneVec<L>::kParts>([&](auto i) AERO_ALWAYS_INLINE {
                    const Part term = av * bv.part[i];
                    acc[p].part[i] += live ? term : Part{};
                });
            } else {
                add_product(acc[p], a_k[p * pr.a_row], bv);
            }
        });
    }
    unroll<T>([&](auto p) AERO_ALWAYS_INLINE {
        store_row(acc[p], pr.out + p * pr.out_row + j0);
    });
}

/// Rows [0, T) of `pr`, every column, in ascending lane blocks.
template <bool SkipZero, int T>
void product_row_tile(const Product& pr) {
    for_each_lane_block(0, pr.n, [&](auto lanes, int j0) {
        product_tile<SkipZero, decltype(lanes)::value, T>(pr, j0);
    });
}

/// Every row of an m-row product in ascending row tiles, split over the
/// pool in chunks of whole tiles (one chunk below kMinParallelFlops).
/// Each element is computed by one tile whatever the chunking, so the
/// chunks never change its bits.
template <bool SkipZero>
void run_product(const Product& pr, int m) {
    const std::int64_t grain =
        tiled_grain(m, static_cast<std::int64_t>(pr.k) * pr.n, kTile);
    util::parallel_for(0, m, grain, [&](std::int64_t i0, std::int64_t i1) {
        for_each_tile(static_cast<int>(i0), static_cast<int>(i1),
                      [&](auto tile, int i) {
                          product_row_tile<SkipZero, decltype(tile)::value>(
                              pr.from_row(i));
                      });
    });
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
    return zip(a, b, [](float x, float y) { return x + y; });
}

Tensor sub(const Tensor& a, const Tensor& b) {
    return zip(a, b, [](float x, float y) { return x - y; });
}

Tensor mul(const Tensor& a, const Tensor& b) {
    return zip(a, b, [](float x, float y) { return x * y; });
}

Tensor scale(const Tensor& a, float s) {
    return map(a, [s](float x) { return x * s; });
}

Tensor add_scalar(const Tensor& a, float s) {
    return map(a, [s](float x) { return x + s; });
}

Tensor neg(const Tensor& a) {
    return map(a, [](float x) { return -x; });
}

Tensor exp(const Tensor& a) {
    return map(a, [](float x) { return std::exp(x); }, kMinChunkExp);
}

Tensor relu(const Tensor& a) {
    return map(a, [](float x) { return x > 0.0f ? x : 0.0f; });
}

Tensor relu_backward(const Tensor& grad, const Tensor& input) {
    return zip(grad, input,
               [](float g, float x) { return x > 0.0f ? g : 0.0f; });
}

Tensor silu(const Tensor& a) {
    return map(
        a, [](float x) { return x * stable_sigmoid(x); }, kMinChunkExp);
}

Tensor silu_backward(const Tensor& grad, const Tensor& input) {
    return zip(
        grad, input,
        [](float g, float x) {
            const float s = stable_sigmoid(x);
            return g * (s + x * s * (1.0f - s));
        },
        kMinChunkExp);
}

Tensor tanh(const Tensor& a) {
    return map(a, [](float x) { return std::tanh(x); }, kMinChunkExp);
}

Tensor tanh_backward(const Tensor& grad, const Tensor& output) {
    return zip(
        grad, output, [](float g, float y) { return g * (1.0f - y * y); },
        kMinChunkExp);
}

Tensor sigmoid(const Tensor& a) {
    return map(a, [](float x) { return stable_sigmoid(x); }, kMinChunkExp);
}

Tensor sigmoid_backward(const Tensor& grad, const Tensor& output) {
    return zip(
        grad, output, [](float g, float y) { return g * y * (1.0f - y); },
        kMinChunkExp);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
    assert(a.rank() == 2 && b.rank() == 2 && a.dim(1) == b.dim(0));
    const int m = a.dim(0);
    const int k = a.dim(1);
    const int n = b.dim(1);
    Tensor out({m, n});
    // Per element: +0, then a[i][kk] * b[kk][j] over kk ascending, zero
    // entries of a skipped.
    run_product<true>({a.data(), k, 1, b.data(), n, out.data(), n, k, n}, m);
    return out;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
    assert(a.rank() == 2 && b.rank() == 2 && a.dim(1) == b.dim(1));
    const int m = a.dim(0);
    const int k = a.dim(1);
    const int n = b.dim(0);
    Tensor out({m, n});
    // Per element: +0, then a[i][kk] * b[j][kk] over kk ascending, every
    // term added. B is transposed once so that a tile step loads one
    // row of it.
    const Tensor bt = transpose_inner(b, 1, n, k);
    run_product<false>({a.data(), k, 1, bt.data(), n, out.data(), n, k, n},
                       m);
    return out;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
    assert(a.rank() == 2 && b.rank() == 2 && a.dim(0) == b.dim(0));
    const int k = a.dim(0);
    const int m = a.dim(1);
    const int n = b.dim(1);
    Tensor out({m, n});
    // matmul's step with A read down its columns: per element +0, then
    // a[kk][i] * b[kk][j] over kk ascending, zero entries of a skipped.
    run_product<true>({a.data(), 1, m, b.data(), n, out.data(), n, k, n}, m);
    return out;
}

Tensor transpose2d(const Tensor& a) {
    assert(a.rank() == 2);
    const int m = a.dim(0);
    const int n = a.dim(1);
    Tensor out({n, m});
    for (int i = 0; i < m; ++i) {
        for (int j = 0; j < n; ++j) out[j * m + i] = a[i * n + j];
    }
    return out;
}

Tensor add_row_bias(const Tensor& a, const Tensor& bias) {
    assert(a.rank() == 2 && bias.rank() == 1 && bias.dim(0) == a.dim(1));
    Tensor out = a;
    const int m = a.dim(0);
    const int n = a.dim(1);
    float* po = out.data();
    const float* pb = bias.data();
    util::parallel_for(0, m, util::grain_for(n, kElemGrain),
                       [&](std::int64_t i0, std::int64_t i1) {
                           for (std::int64_t i = i0; i < i1; ++i) {
                               for (int j = 0; j < n; ++j) {
                                   po[i * n + j] += pb[j];
                               }
                           }
                       });
    return out;
}

Tensor sum_rows(const Tensor& a) {
    assert(a.rank() == 2);
    const int m = a.dim(0);
    const int n = a.dim(1);
    Tensor out({n});
    const float* pa = a.data();
    float* po = out.data();
    // Columns are the parallel axis; each column sums its rows in
    // ascending order, matching the serial kernel element-for-element.
    util::parallel_for(0, n, util::grain_for(m, kElemGrain),
                       [&](std::int64_t j0, std::int64_t j1) {
                           for (std::int64_t j = j0; j < j1; ++j) {
                               float acc = 0.0f;
                               for (int i = 0; i < m; ++i) {
                                   acc += pa[i * n + j];
                               }
                               po[j] = acc;
                           }
                       });
    return out;
}

float sum_all(const Tensor& a) {
    // Deterministic parallel reduction: fixed-size chunk partials (the
    // boundaries depend only on the element count) reduced in ascending
    // chunk order — never atomics, whose arrival order would make the
    // float result depend on scheduling.
    const std::int64_t size = a.size();
    if (size == 0) return 0.0f;
    const std::int64_t chunks = (size + kElemGrain - 1) / kElemGrain;
    std::vector<double> partials(static_cast<std::size_t>(chunks), 0.0);
    const float* pa = a.data();
    util::parallel_for(0, size, kElemGrain,
                       [&](std::int64_t lo, std::int64_t hi) {
                           double acc = 0.0;
                           for (std::int64_t i = lo; i < hi; ++i) {
                               acc += pa[i];
                           }
                           partials[static_cast<std::size_t>(
                               lo / kElemGrain)] = acc;
                       });
    double total = 0.0;
    for (const double partial : partials) total += partial;
    return static_cast<float>(total);
}

float mean_all(const Tensor& a) {
    return a.size() == 0 ? 0.0f : sum_all(a) / static_cast<float>(a.size());
}

Tensor softmax_rows(const Tensor& a) {
    assert(a.rank() == 2);
    const int m = a.dim(0);
    const int n = a.dim(1);
    Tensor out = a;
    float* po = out.data();
    // Rows are independent; exp dominates, so the grain floor counts
    // transcendentals rather than flops.
    util::parallel_for(
        0, m, util::grain_for(n, kMinChunkExp),
        [&](std::int64_t i0, std::int64_t i1) {
            for (std::int64_t i = i0; i < i1; ++i) {
                float* row = po + i * n;
                float max_v = row[0];
                for (int j = 1; j < n; ++j) max_v = std::max(max_v, row[j]);
                float sum = 0.0f;
                for (int j = 0; j < n; ++j) {
                    row[j] = std::exp(row[j] - max_v);
                    sum += row[j];
                }
                const float inv = 1.0f / sum;
                for (int j = 0; j < n; ++j) row[j] *= inv;
            }
        });
    return out;
}

Tensor softmax_rows_backward(const Tensor& grad, const Tensor& output) {
    assert(grad.same_shape(output) && grad.rank() == 2);
    const int m = grad.dim(0);
    const int n = grad.dim(1);
    Tensor out({m, n});
    const float* pg = grad.data();
    const float* py = output.data();
    float* po = out.data();
    util::parallel_for(0, m, util::grain_for(n, kElemGrain),
                       [&](std::int64_t i0, std::int64_t i1) {
                           for (std::int64_t i = i0; i < i1; ++i) {
                               const float* g = pg + i * n;
                               const float* y = py + i * n;
                               float dot = 0.0f;
                               for (int j = 0; j < n; ++j) dot += g[j] * y[j];
                               float* o = po + i * n;
                               for (int j = 0; j < n; ++j) {
                                   o[j] = y[j] * (g[j] - dot);
                               }
                           }
                       });
    return out;
}

namespace {

/// Copy of the [rows, cols] block of a 2-D tensor at (row0, col0).
Tensor block(const Tensor& a, int row0, int rows, int col0, int cols) {
    return slice(slice(a, 0, row0, row0 + rows), 1, col0, col0 + cols);
}

/// Adds `part` into the block of `into` at (row0, col0).
void add_block(Tensor* into, const Tensor& part, int row0, int col0) {
    const int rows = part.dim(0);
    const int cols = part.dim(1);
    const int stride = into->dim(1);
    for (int i = 0; i < rows; ++i) {
        const float* src = part.data() + i * cols;
        float* dst = into->data() + (row0 + i) * stride + col0;
        for (int j = 0; j < cols; ++j) dst[j] += src[j];
    }
}

}  // namespace

Tensor attention(const Tensor& q, const Tensor& k, const Tensor& v,
                 const std::vector<AttentionSegment>& segments, int heads,
                 float score_scale, Tensor* probs) {
    assert(q.rank() == 2 && k.rank() == 2 && v.same_shape(k));
    const int d = q.dim(1);
    assert(k.dim(1) == d && heads >= 1 && d % heads == 0);
    const int hd = d / heads;

    // Offset of each segment's softmax matrices in `probs`, and the
    // widest key block, which sizes the per-chunk K_h and score rows.
    std::vector<std::int64_t> prob_offset(segments.size() + 1, 0);
    int max_keys = 1;
    std::int64_t flops = 0;
    for (std::size_t s = 0; s < segments.size(); ++s) {
        const AttentionSegment& seg = segments[s];
        assert(seg.q_begin >= 0 && seg.q_begin + seg.q_rows <= q.dim(0));
        assert(seg.k_rows >= 1 && seg.k_begin >= 0 &&
               seg.k_begin + seg.k_rows <= k.dim(0));
        const std::int64_t unit =
            static_cast<std::int64_t>(seg.q_rows) * seg.k_rows;
        prob_offset[s + 1] = prob_offset[s] + unit * heads;
        max_keys = std::max(max_keys, seg.k_rows);
        flops += 2 * unit * d;
    }
    Tensor out({q.dim(0), d});
    float* pp = nullptr;
    if (probs != nullptr) {
        *probs = Tensor(
            {static_cast<int>(std::max<std::int64_t>(1, prob_offset.back()))});
        pp = probs->data();
    }
    const float* pq = q.data();
    const float* pk = k.data();
    const float* pv = v.data();
    float* po = out.data();

    const std::int64_t units =
        static_cast<std::int64_t>(segments.size()) * heads;
    if (units == 0) return out;
    util::parallel_for(
        0, units, util::grain_for(flops / units, kMinChunkFlops),
        [&](std::int64_t u0, std::int64_t u1) {
            // K_h transposed, then kTile score rows for a unit whose
            // softmax matrix is not kept.
            mem::Buffer scratch(static_cast<std::size_t>(max_keys) *
                                static_cast<std::size_t>(hd + kTile));
            float* k_t = scratch.data();
            float* score_rows = k_t + max_keys * hd;
            for (std::int64_t u = u0; u < u1; ++u) {
                const std::size_t s = static_cast<std::size_t>(u / heads);
                const AttentionSegment& seg = segments[s];
                const int lo = static_cast<int>(u % heads) * hd;
                const int keys = seg.k_rows;
                const float* k_h = pk + seg.k_begin * d + lo;
                for (int j = 0; j < keys; ++j) {
                    for (int kk = 0; kk < hd; ++kk) {
                        k_t[kk * keys + j] = k_h[j * d + kk];
                    }
                }
                float* unit_probs =
                    pp == nullptr ? nullptr
                                  : pp + prob_offset[s] +
                                        (u % heads) * seg.q_rows * keys;
                const float* q_h = pq + seg.q_begin * d + lo;
                const float* v_h = pv + seg.k_begin * d + lo;
                float* out_h = po + seg.q_begin * d + lo;
                for_each_tile(0, seg.q_rows, [&](auto tile, int i0) {
                    constexpr int T = decltype(tile)::value;
                    float* rows = unit_probs == nullptr
                                      ? score_rows
                                      : unit_probs + i0 * keys;
                    // Q_h K_hᵀ rows, as matmul sums them.
                    product_row_tile<true, T>({q_h + i0 * d, d, 1, k_t, keys,
                                               rows, keys, hd, keys});
                    for (int p = 0; p < T; ++p) {
                        float* row = rows + p * keys;
                        for (int j = 0; j < keys; ++j) {
                            row[j] = row[j] * score_scale;
                        }
                        // softmax_rows: max -> exp -> sum -> scale.
                        float max_v = row[0];
                        for (int j = 1; j < keys; ++j) {
                            max_v = std::max(max_v, row[j]);
                        }
                        float sum = 0.0f;
                        for (int j = 0; j < keys; ++j) {
                            row[j] = std::exp(row[j] - max_v);
                            sum += row[j];
                        }
                        const float inv = 1.0f / sum;
                        for (int j = 0; j < keys; ++j) row[j] *= inv;
                    }
                    // P V_h rows, as matmul sums them.
                    product_row_tile<true, T>({rows, keys, 1, v_h, d,
                                               out_h + i0 * d, d, keys, hd});
                });
            }
        });
    return out;
}

AttentionGrads attention_backward(
    const Tensor& grad, const Tensor& q, const Tensor& k, const Tensor& v,
    const Tensor& probs, const std::vector<AttentionSegment>& segments,
    int heads, float score_scale) {
    assert(grad.same_shape(q));
    const int d = q.dim(1);
    const int hd = d / heads;
    AttentionGrads grads{Tensor(q.shape()), Tensor(k.shape()),
                         Tensor(v.shape())};
    int offset = 0;
    for (const AttentionSegment& seg : segments) {
        const int tq = seg.q_rows;
        const int tk = seg.k_rows;
        for (int h = 0; h < heads; ++h) {
            const int lo = h * hd;
            const Tensor g_out = block(grad, seg.q_begin, tq, lo, hd);
            const Tensor qh = block(q, seg.q_begin, tq, lo, hd);
            const Tensor kh_t = transpose2d(block(k, seg.k_begin, tk, lo, hd));
            const Tensor vh = block(v, seg.k_begin, tk, lo, hd);
            Tensor p({tq, tk});
            p.copy_from(probs.data() + offset, tq * tk);
            offset += tq * tk;
            // out_h = P V_h
            const Tensor g_p = matmul_nt(g_out, vh);
            add_block(&grads.v, matmul_tn(p, g_out), seg.k_begin, lo);
            // P = softmax(S · scale), S = Q_h K_hᵀ
            const Tensor g_s =
                scale(softmax_rows_backward(g_p, p), score_scale);
            add_block(&grads.q, matmul_nt(g_s, kh_t), seg.q_begin, lo);
            add_block(&grads.k, transpose2d(matmul_tn(qh, g_s)), seg.k_begin,
                      lo);
        }
    }
    return grads;
}

namespace {

int conv_out_extent(int in, int kernel, const Conv2dSpec& spec) {
    return (in + 2 * spec.pad - kernel) / spec.stride + 1;
}

// Register-tiled channel-lane convolution (DESIGN.md §11). A lane group
// is kLanes channels. The tile of each kernel below is kTile output
// positions of one row (forward), kTile input positions of one row
// (backward-input), or kTile input channels (backward-weight); each
// element gets the direct NCHW loop's additions in its order, skipping
// the same taps.

/// Index i of a tile step lies inside an extent n.
inline bool inside(int i, int n) {
    return static_cast<unsigned>(i) < static_cast<unsigned>(n);
}

/// The steps k of a tile, ascending, where tile position p reads index
/// base + p * spacing + k of an extent n. Only [lo, hi) reaches the
/// extent at all; every position is inside on [mid_lo, mid_hi), while
/// the steps before and after it need a per-position check.
struct TileSteps {
    int lo, mid_lo, mid_hi, hi;
};

/// Steps of [first, last) for a tile of T positions (see TileSteps).
template <int T>
TileSteps tile_steps(int first, int last, int base, int spacing, int n) {
    const int span = (T - 1) * spacing;
    const int lo = std::max(first, -base - span);
    const int hi = std::max(lo, std::min(last, n - base));
    const int mid_lo = std::clamp(-base, lo, hi);
    const int mid_hi = std::clamp(n - base - span, mid_lo, hi);
    return {lo, mid_lo, mid_hi, hi};
}

/// Runs step(k, checked) over the steps in ascending order, where
/// `checked` is std::true_type on the steps that need a per-position
/// check and std::false_type on those every position takes.
template <typename Step>
AERO_ALWAYS_INLINE inline void run_tile_steps(const TileSteps& s,
                                              Step&& step) {
    for (int k = s.lo; k < s.hi; ++k) {
        if (k >= s.mid_lo && k < s.mid_hi) {
            step(k, std::false_type{});
        } else {
            step(k, std::true_type{});
        }
    }
}

struct ConvGeometry {
    int c, h, w;     ///< input channels and extent
    int oc, oh, ow;  ///< output channels and extent
    int kh, kw;
    int stride, pad;
};

/// Half-open index range [lo, hi).
struct Range {
    int lo;
    int hi;
};

/// Taps k of output position `o` that land inside an input of extent
/// `in` — the taps the direct loop does not skip.
Range taps_inside(int o, int kernel, int in, const ConvGeometry& g) {
    const int i0 = o * g.stride - g.pad;
    return {std::max(0, -i0), std::min(kernel, in - i0)};
}

/// Output positions o (extent `out`) that reach input position `i`
/// through some tap k = i + pad - o * stride in [0, kernel).
Range outputs_reaching(int i, int kernel, int out, const ConvGeometry& g) {
    const int t = i + g.pad;
    const int first = t - kernel + 1;
    return {first <= 0 ? 0 : (first + g.stride - 1) / g.stride,
            std::min(out, t / g.stride + 1)};
}

/// Output positions o (extent `out`) whose tap `k` lands inside an input
/// of extent `in`: 0 <= o * stride - pad + k < in.
Range outputs_with_tap(int k, int in, int out, const ConvGeometry& g) {
    const int first = g.pad - k;
    const int last = in - 1 + g.pad - k;
    return {first <= 0 ? 0 : (first + g.stride - 1) / g.stride,
            last < 0 ? 0 : std::min(out, last / g.stride + 1)};
}

/// Forward for output channels [o0, o0 + L) at the T output positions
/// (y, x0 + p) of one batch item. `in_b` is [C][H][W]; `packed` is the
/// weight as [C][KH][KW][OC]; `out_b` is [OC][OH][OW]. Per element:
/// `init` (bias or +0), then in * w over ch -> ky -> kx ascending. The
/// step over kx loads one weight vector for the whole tile; a position
/// whose tap falls outside the input skips it, so a clipped tap neither
/// reads a pad nor adds a term.
template <int L, int T>
void conv_forward_tile(const ConvGeometry& g, const float* in_b,
                       const float* packed, const LaneVec<L>& init, int o0,
                       int y, int x0, float* out_b) {
    const auto [ky0, ky1] = taps_inside(y, g.kh, g.h, g);
    const int iy0 = y * g.stride - g.pad;
    const int ix0 = x0 * g.stride - g.pad;
    const TileSteps steps = tile_steps<T>(0, g.kw, ix0, g.stride, g.w);
    LaneVec<L> acc[T];
    unroll<T>([&](auto p) AERO_ALWAYS_INLINE { acc[p] = init; });
    for (int ch = 0; ch < g.c; ++ch) {
        const float* in_ch = in_b + ch * g.h * g.w;
        const float* w_ch = packed + ch * g.kh * g.kw * g.oc + o0;
        for (int ky = ky0; ky < ky1; ++ky) {
            const float* in_row = in_ch + (iy0 + ky) * g.w;
            const float* w_row = w_ch + ky * g.kw * g.oc;
            run_tile_steps(steps, [&](int kx, auto checked)
                                      AERO_ALWAYS_INLINE {
                const LaneVec<L> wv = load_lanes<L>(w_row + kx * g.oc);
                unroll<T>([&](auto p) AERO_ALWAYS_INLINE {
                    const int ix = ix0 + p * g.stride + kx;
                    if (decltype(checked)::value && !inside(ix, g.w)) return;
                    add_product(acc[p], in_row[ix], wv);
                });
            });
        }
    }
    unroll<T>([&](auto p) AERO_ALWAYS_INLINE {
        store_lanes(acc[p], out_b + (o0 * g.oh + y) * g.ow + x0 + p,
                    g.oh * g.ow);
    });
}

/// Input gradient for input channels [c0, c0 + L) at the T input
/// positions (iy, ix0 + p * stride) of one batch item — one stride phase
/// of a row — in gather form. `grad_b` is [OC][OH][OW]; `packed` is the
/// weight as [OC][KH][KW][C]; `out_b` is [C][H][W]. Per element: +0,
/// then g * w over o, y, x ascending (ky, kx descending) — the order in
/// which the direct loop scatters into it. Every position takes output
/// column xb + p through the same tap kx, so the step over xb loads one
/// weight vector for the whole tile. A zero g adds +0 through a mask
/// instead of being skipped: the sum starts at +0 and never becomes -0,
/// so that leaves its bits unchanged, as the skip does, and a non-finite
/// weight never reaches it through a zero g.
template <int L, int T>
void conv_backward_input_tile(const ConvGeometry& g, const float* grad_b,
                              const float* packed, int c0, int iy, int ix0,
                              float* out_b) {
    using Part = typename LaneVec<L>::Part;
    const auto [y0, y1] = outputs_reaching(iy, g.kh, g.oh, g);
    // Tap kx = t - xb * stride of output column xb must lie in [0, kw).
    const int t = ix0 + g.pad;
    const int below = t - g.kw + 1;
    const int xb_first =
        below <= 0 ? -(-below / g.stride) : (below + g.stride - 1) / g.stride;
    const TileSteps steps = tile_steps<T>(xb_first, t / g.stride + 1, 0, 1,
                                          g.ow);
    LaneVec<L> acc[T];
    unroll<T>([&](auto p) AERO_ALWAYS_INLINE { acc[p] = LaneVec<L>{}; });
    for (int o = 0; o < g.oc; ++o) {
        const float* g_o = grad_b + o * g.oh * g.ow;
        const float* w_o = packed + o * g.kh * g.kw * g.c + c0;
        for (int y = y0; y < y1; ++y) {
            const int ky = iy + g.pad - y * g.stride;
            const float* g_row = g_o + y * g.ow;
            const float* w_row = w_o + ky * g.kw * g.c;
            run_tile_steps(steps, [&](int xb, auto checked)
                                      AERO_ALWAYS_INLINE {
                const int kx = t - xb * g.stride;
                const LaneVec<L> wv = load_lanes<L>(w_row + kx * g.c);
                unroll<T>([&](auto p) AERO_ALWAYS_INLINE {
                    const int x = xb + p;
                    if (decltype(checked)::value && !inside(x, g.ow)) return;
                    const Part gv = splat<Part>(g_row[x]);
                    const auto live = gv != Part{};
                    unroll<LaneVec<L>::kParts>([&](auto i)
                                                   AERO_ALWAYS_INLINE {
                        const Part term = gv * wv.part[i];
                        acc[p].part[i] += live ? term : Part{};
                    });
                });
            });
        }
    }
    unroll<T>([&](auto p) AERO_ALWAYS_INLINE {
        store_lanes(acc[p],
                    out_b + (c0 * g.h + iy) * g.w + ix0 + p * g.stride,
                    g.h * g.w);
    });
}

/// Weight gradient for output channels [o0, o0 + L) at the T input
/// channels ch0 + p. `input` is [N][C][H][W]; `packed` is grad_out as
/// [N][OH][OW][OC]; `grad_w` is [OC][C][KH][KW]. Per element: +0, then
/// g * in over b, y, x ascending; each step loads one grad_out vector
/// for the whole tile. A zero g adds +0 instead of being skipped: the
/// accumulator starts at +0 and a float sum never becomes -0 from there,
/// so adding +0 leaves its bits unchanged, exactly as the skip does (and
/// a non-finite input never reaches the sum through a zero g).
template <int L, int T>
void conv_backward_weight_tile(const ConvGeometry& g, int n,
                               const float* input, const float* packed,
                               int ch0, int o0, float* grad_w) {
    using Part = typename LaneVec<L>::Part;
    const int plane = g.h * g.w;
    for (int ky = 0; ky < g.kh; ++ky) {
        const auto [y0, y1] = outputs_with_tap(ky, g.h, g.oh, g);
        for (int kx = 0; kx < g.kw; ++kx) {
            const auto [x0, x1] = outputs_with_tap(kx, g.w, g.ow, g);
            LaneVec<L> acc[T];
            unroll<T>(
                [&](auto p) AERO_ALWAYS_INLINE { acc[p] = LaneVec<L>{}; });
            for (int b = 0; b < n; ++b) {
                const float* in_b = input + (b * g.c + ch0) * plane;
                const float* g_b = packed + b * g.oh * g.ow * g.oc + o0;
                for (int y = y0; y < y1; ++y) {
                    const float* in_row =
                        in_b + (y * g.stride - g.pad + ky) * g.w;
                    for (int x = x0; x < x1; ++x) {
                        const int ix = x * g.stride - g.pad + kx;
                        const LaneVec<L> gv =
                            load_lanes<L>(g_b + (y * g.ow + x) * g.oc);
                        unroll<T>([&](auto p) AERO_ALWAYS_INLINE {
                            const float v = in_row[p * plane + ix];
                            unroll<LaneVec<L>::kParts>([&](auto i)
                                                           AERO_ALWAYS_INLINE {
                                const Part term = gv.part[i] * v;
                                acc[p].part[i] +=
                                    gv.part[i] != Part{} ? term : Part{};
                            });
                        });
                    }
                }
            }
            unroll<T>([&](auto p) AERO_ALWAYS_INLINE {
                store_lanes(
                    acc[p],
                    grad_w + ((o0 * g.c + ch0 + p) * g.kh + ky) * g.kw + kx,
                    g.c * g.kh * g.kw);
            });
        }
    }
}

}  // namespace

Tensor conv2d(const Tensor& input, const Tensor& weight, const Tensor& bias,
              const Conv2dSpec& spec) {
    assert(input.rank() == 4 && weight.rank() == 4);
    const int n = input.dim(0);
    const int c = input.dim(1);
    const int h = input.dim(2);
    const int w = input.dim(3);
    const int oc = weight.dim(0);
    assert(weight.dim(1) == c);
    const int kh = weight.dim(2);
    const int kw = weight.dim(3);
    const int oh = conv_out_extent(h, kh, spec);
    const int ow = conv_out_extent(w, kw, spec);
    assert(oh >= 1 && ow >= 1);
    assert(bias.empty() || (bias.rank() == 1 && bias.dim(0) == oc));
    const ConvGeometry g{c, h, w, oc, oh, ow, kh, kw, spec.stride, spec.pad};

    Tensor out({n, oc, oh, ow});
    const Tensor packed = transpose_inner(weight, 1, oc, c * kh * kw);
    const float* pi = input.data();
    const float* pw = packed.data();
    const float* pb = bias.empty() ? nullptr : bias.data();
    float* po = out.data();

    // Units are (batch, output-channel group): disjoint output slabs.
    const int groups = lane_groups(oc);
    const std::int64_t unit_flops =
        static_cast<std::int64_t>(oh) * ow * c * kh * kw * kLanes;
    const std::int64_t units = static_cast<std::int64_t>(n) * groups;
    util::parallel_for(
        0, units, tiled_grain(units, unit_flops),
        [&](std::int64_t u0, std::int64_t u1) {
            for (std::int64_t u = u0; u < u1; ++u) {
                const int b = static_cast<int>(u / groups);
                const int first = static_cast<int>(u % groups) * kLanes;
                const float* in_b = pi + b * c * h * w;
                float* out_b = po + b * oc * oh * ow;
                for_each_lane_block(
                    first, std::min(first + kLanes, oc),
                    [&](auto lanes, int o0) {
                        constexpr int L = decltype(lanes)::value;
                        const LaneVec<L> init = pb == nullptr
                                                    ? LaneVec<L>{}
                                                    : load_lanes<L>(pb + o0);
                        for (int y = 0; y < oh; ++y) {
                            for_each_tile(0, ow, [&](auto tile, int x0) {
                                conv_forward_tile<L, decltype(tile)::value>(
                                    g, in_b, pw, init, o0, y, x0, out_b);
                            });
                        }
                    });
            }
        });
    return out;
}

Tensor conv2d_backward_input(const Tensor& grad_out, const Tensor& weight,
                             const std::vector<int>& input_shape,
                             const Conv2dSpec& spec) {
    assert(grad_out.rank() == 4 && weight.rank() == 4 &&
           input_shape.size() == 4);
    const int n = input_shape[0];
    const int c = input_shape[1];
    const int h = input_shape[2];
    const int w = input_shape[3];
    const int oc = weight.dim(0);
    const int kh = weight.dim(2);
    const int kw = weight.dim(3);
    const int oh = grad_out.dim(2);
    const int ow = grad_out.dim(3);
    const ConvGeometry g{c, h, w, oc, oh, ow, kh, kw, spec.stride, spec.pad};

    Tensor grad_in(input_shape);
    const Tensor packed = transpose_inner(weight, oc, c, kh * kw);
    const float* pg = grad_out.data();
    const float* pw = packed.data();
    float* po = grad_in.data();

    // Units are (batch, input-channel group): disjoint grad_in slabs.
    const int groups = lane_groups(c);
    const std::int64_t unit_flops =
        static_cast<std::int64_t>(oc) * oh * ow * kh * kw * kLanes;
    const std::int64_t units = static_cast<std::int64_t>(n) * groups;
    util::parallel_for(
        0, units, tiled_grain(units, unit_flops),
        [&](std::int64_t u0, std::int64_t u1) {
            for (std::int64_t u = u0; u < u1; ++u) {
                const int b = static_cast<int>(u / groups);
                const int first = static_cast<int>(u % groups) * kLanes;
                const float* grad_b = pg + b * oc * oh * ow;
                float* out_b = po + b * c * h * w;
                for_each_lane_block(
                    first, std::min(first + kLanes, c),
                    [&](auto lanes, int c0) {
                        constexpr int L = decltype(lanes)::value;
                        // Tiles run over one stride phase of a row, so
                        // every position meets a step's output column
                        // through the same tap.
                        for (int iy = 0; iy < h; ++iy) {
                            for (int phase = 0; phase < spec.stride;
                                 ++phase) {
                                const int count =
                                    (w - phase + spec.stride - 1) /
                                    spec.stride;
                                for_each_tile(0, count, [&](auto tile,
                                                            int j) {
                                    conv_backward_input_tile<
                                        L, decltype(tile)::value>(
                                        g, grad_b, pw, c0, iy,
                                        phase + j * spec.stride, out_b);
                                });
                            }
                        }
                    });
            }
        });
    return grad_in;
}

Tensor conv2d_backward_weight(const Tensor& grad_out, const Tensor& input,
                              const std::vector<int>& weight_shape,
                              const Conv2dSpec& spec) {
    assert(grad_out.rank() == 4 && input.rank() == 4 &&
           weight_shape.size() == 4);
    const int n = input.dim(0);
    const int c = input.dim(1);
    const int h = input.dim(2);
    const int w = input.dim(3);
    const int oc = weight_shape[0];
    const int kh = weight_shape[2];
    const int kw = weight_shape[3];
    const int oh = grad_out.dim(2);
    const int ow = grad_out.dim(3);
    const ConvGeometry g{c, h, w, oc, oh, ow, kh, kw, spec.stride, spec.pad};

    Tensor grad_w(weight_shape);
    const Tensor packed = transpose_inner(grad_out, n, oc, oh * ow);
    const float* pi = input.data();
    const float* pg = packed.data();
    float* po = grad_w.data();

    // Units are (input-channel tile, output-channel group): each writes
    // a disjoint block of weight elements, once per element, from
    // register accumulators.
    const int tiles = (c + kTile - 1) / kTile;
    const int groups = lane_groups(oc);
    const std::int64_t unit_flops =
        static_cast<std::int64_t>(n) * oh * ow * kh * kw * kTile * kLanes;
    const std::int64_t units = static_cast<std::int64_t>(tiles) * groups;
    util::parallel_for(
        0, units, tiled_grain(units, unit_flops),
        [&](std::int64_t u0, std::int64_t u1) {
            for (std::int64_t u = u0; u < u1; ++u) {
                const int ch0 = static_cast<int>(u / groups) * kTile;
                const int first = static_cast<int>(u % groups) * kLanes;
                for_each_tile(
                    ch0, std::min(ch0 + kTile, c), [&](auto tile, int ch) {
                        for_each_lane_block(
                            first, std::min(first + kLanes, oc),
                            [&](auto lanes, int o0) {
                                conv_backward_weight_tile<
                                    decltype(lanes)::value,
                                    decltype(tile)::value>(g, n, pi, pg, ch,
                                                           o0, po);
                            });
                    });
            }
        });
    return grad_w;
}

Tensor conv2d_backward_bias(const Tensor& grad_out) {
    assert(grad_out.rank() == 4);
    const int n = grad_out.dim(0);
    const int oc = grad_out.dim(1);
    const int spatial = grad_out.dim(2) * grad_out.dim(3);
    Tensor grad_b({oc});
    const float* pg = grad_out.data();
    float* pb = grad_b.data();
    // o-outer (parallel), b-inner: each bias element still sums its
    // per-batch partials in ascending b order, as the serial loop did.
    util::parallel_for(
        0, oc, util::grain_for(static_cast<std::int64_t>(n) * spatial,
                               kElemGrain),
        [&](std::int64_t o0, std::int64_t o1) {
            for (std::int64_t o = o0; o < o1; ++o) {
                for (int b = 0; b < n; ++b) {
                    const float* base = pg + (b * oc + o) * spatial;
                    float acc = 0.0f;
                    for (int s = 0; s < spatial; ++s) acc += base[s];
                    pb[o] += acc;
                }
            }
        });
    return grad_b;
}

Tensor upsample_nearest2x(const Tensor& input) {
    assert(input.rank() == 4);
    const int n = input.dim(0);
    const int c = input.dim(1);
    const int h = input.dim(2);
    const int w = input.dim(3);
    Tensor out({n, c, h * 2, w * 2});
    const float* pi = input.data();
    float* po = out.data();
    util::parallel_for(
        0, static_cast<std::int64_t>(n) * c,
        util::grain_for(static_cast<std::int64_t>(h) * w * 4, kElemGrain),
        [&](std::int64_t bc0, std::int64_t bc1) {
            for (std::int64_t bc = bc0; bc < bc1; ++bc) {
                const float* src = pi + bc * h * w;
                float* dst = po + bc * h * w * 4;
                for (int y = 0; y < h * 2; ++y) {
                    for (int x = 0; x < w * 2; ++x) {
                        dst[y * w * 2 + x] = src[(y / 2) * w + (x / 2)];
                    }
                }
            }
        });
    return out;
}

Tensor upsample_nearest2x_backward(const Tensor& grad_out) {
    assert(grad_out.rank() == 4);
    const int n = grad_out.dim(0);
    const int c = grad_out.dim(1);
    const int oh = grad_out.dim(2);
    const int ow = grad_out.dim(3);
    assert(oh % 2 == 0 && ow % 2 == 0);
    const int h = oh / 2;
    const int w = ow / 2;
    Tensor grad_in({n, c, h, w});
    const float* pg = grad_out.data();
    float* po = grad_in.data();
    util::parallel_for(
        0, static_cast<std::int64_t>(n) * c,
        util::grain_for(static_cast<std::int64_t>(oh) * ow, kElemGrain),
        [&](std::int64_t bc0, std::int64_t bc1) {
            for (std::int64_t bc = bc0; bc < bc1; ++bc) {
                const float* src = pg + bc * oh * ow;
                float* dst = po + bc * h * w;
                for (int y = 0; y < oh; ++y) {
                    for (int x = 0; x < ow; ++x) {
                        dst[(y / 2) * w + (x / 2)] += src[y * ow + x];
                    }
                }
            }
        });
    return grad_in;
}

Tensor avg_pool2x(const Tensor& input) {
    assert(input.rank() == 4);
    const int n = input.dim(0);
    const int c = input.dim(1);
    const int h = input.dim(2);
    const int w = input.dim(3);
    assert(h % 2 == 0 && w % 2 == 0);
    Tensor out({n, c, h / 2, w / 2});
    const float* pi = input.data();
    float* po = out.data();
    util::parallel_for(
        0, static_cast<std::int64_t>(n) * c,
        util::grain_for(static_cast<std::int64_t>(h) * w, kElemGrain),
        [&](std::int64_t bc0, std::int64_t bc1) {
            for (std::int64_t bc = bc0; bc < bc1; ++bc) {
                const float* src = pi + bc * h * w;
                float* dst = po + bc * (h / 2) * (w / 2);
                for (int y = 0; y < h / 2; ++y) {
                    for (int x = 0; x < w / 2; ++x) {
                        const float sum = src[(2 * y) * w + 2 * x] +
                                          src[(2 * y) * w + 2 * x + 1] +
                                          src[(2 * y + 1) * w + 2 * x] +
                                          src[(2 * y + 1) * w + 2 * x + 1];
                        dst[y * (w / 2) + x] = 0.25f * sum;
                    }
                }
            }
        });
    return out;
}

Tensor avg_pool2x_backward(const Tensor& grad_out) {
    assert(grad_out.rank() == 4);
    const int n = grad_out.dim(0);
    const int c = grad_out.dim(1);
    const int oh = grad_out.dim(2);
    const int ow = grad_out.dim(3);
    Tensor grad_in({n, c, oh * 2, ow * 2});
    const float* pg = grad_out.data();
    float* po = grad_in.data();
    util::parallel_for(
        0, static_cast<std::int64_t>(n) * c,
        util::grain_for(static_cast<std::int64_t>(oh) * ow * 4, kElemGrain),
        [&](std::int64_t bc0, std::int64_t bc1) {
            for (std::int64_t bc = bc0; bc < bc1; ++bc) {
                const float* src = pg + bc * oh * ow;
                float* dst = po + bc * oh * ow * 4;
                for (int y = 0; y < oh * 2; ++y) {
                    for (int x = 0; x < ow * 2; ++x) {
                        dst[y * ow * 2 + x] =
                            0.25f * src[(y / 2) * ow + (x / 2)];
                    }
                }
            }
        });
    return grad_in;
}

Tensor global_avg_pool(const Tensor& input) {
    assert(input.rank() == 4);
    const int n = input.dim(0);
    const int c = input.dim(1);
    const int spatial = input.dim(2) * input.dim(3);
    Tensor out({n, c});
    const float inv = 1.0f / static_cast<float>(spatial);
    const float* pi = input.data();
    float* po = out.data();
    util::parallel_for(0, static_cast<std::int64_t>(n) * c,
                       util::grain_for(spatial, kElemGrain),
                       [&](std::int64_t bc0, std::int64_t bc1) {
                           for (std::int64_t bc = bc0; bc < bc1; ++bc) {
                               const float* src = pi + bc * spatial;
                               float acc = 0.0f;
                               for (int s = 0; s < spatial; ++s) acc += src[s];
                               po[bc] = acc * inv;
                           }
                       });
    return out;
}

Tensor global_avg_pool_backward(const Tensor& grad_out,
                                const std::vector<int>& input_shape) {
    assert(grad_out.rank() == 2 && input_shape.size() == 4);
    const int n = input_shape[0];
    const int c = input_shape[1];
    const int spatial = input_shape[2] * input_shape[3];
    Tensor grad_in(input_shape);
    const float inv = 1.0f / static_cast<float>(spatial);
    const float* pg = grad_out.data();
    float* po = grad_in.data();
    util::parallel_for(0, static_cast<std::int64_t>(n) * c,
                       util::grain_for(spatial, kElemGrain),
                       [&](std::int64_t bc0, std::int64_t bc1) {
                           for (std::int64_t bc = bc0; bc < bc1; ++bc) {
                               const float g = pg[bc] * inv;
                               float* dst = po + bc * spatial;
                               for (int s = 0; s < spatial; ++s) dst[s] = g;
                           }
                       });
    return grad_in;
}

Tensor add_spatial_bias(const Tensor& x, const Tensor& bias) {
    assert(x.rank() == 4 && bias.rank() == 2);
    assert(bias.dim(0) == x.dim(0) && bias.dim(1) == x.dim(1));
    const int nc = x.dim(0) * x.dim(1);
    const int spatial = x.dim(2) * x.dim(3);
    Tensor out = x;
    float* po = out.data();
    const float* pb = bias.data();
    util::parallel_for(0, nc, util::grain_for(spatial, kElemGrain),
                       [&](std::int64_t bc0, std::int64_t bc1) {
                           for (std::int64_t bc = bc0; bc < bc1; ++bc) {
                               const float b = pb[bc];
                               float* base = po + bc * spatial;
                               for (int s = 0; s < spatial; ++s) base[s] += b;
                           }
                       });
    return out;
}

Tensor add_spatial_bias_backward_bias(const Tensor& grad_out) {
    assert(grad_out.rank() == 4);
    const int n = grad_out.dim(0);
    const int c = grad_out.dim(1);
    const int spatial = grad_out.dim(2) * grad_out.dim(3);
    Tensor grad_bias({n, c});
    const float* pg = grad_out.data();
    float* po = grad_bias.data();
    util::parallel_for(0, static_cast<std::int64_t>(n) * c,
                       util::grain_for(spatial, kElemGrain),
                       [&](std::int64_t bc0, std::int64_t bc1) {
                           for (std::int64_t bc = bc0; bc < bc1; ++bc) {
                               const float* base = pg + bc * spatial;
                               float acc = 0.0f;
                               for (int s = 0; s < spatial; ++s) {
                                   acc += base[s];
                               }
                               po[bc] = acc;
                           }
                       });
    return grad_bias;
}

Tensor concat(const std::vector<Tensor>& parts, int axis) {
    assert(!parts.empty());
    std::vector<int> out_shape = parts.front().shape();
    assert(axis >= 0 && axis < static_cast<int>(out_shape.size()));
    int axis_total = 0;
    for (const Tensor& p : parts) {
        assert(p.rank() == static_cast<int>(out_shape.size()));
        for (int d = 0; d < p.rank(); ++d) {
            assert(d == axis || p.dim(d) == out_shape[static_cast<std::size_t>(d)]);
        }
        axis_total += p.dim(axis);
    }
    out_shape[static_cast<std::size_t>(axis)] = axis_total;
    Tensor out(out_shape);

    int outer = 0;
    int inner = 0;
    outer_inner(out_shape, axis, &outer, &inner);

    int axis_offset = 0;
    for (const Tensor& p : parts) {
        const int p_axis = p.dim(axis);
        for (int o = 0; o < outer; ++o) {
            const float* src = p.data() + o * p_axis * inner;
            float* dst =
                out.data() + (o * axis_total + axis_offset) * inner;
            for (int i = 0; i < p_axis * inner; ++i) dst[i] = src[i];
        }
        axis_offset += p_axis;
    }
    return out;
}

std::vector<Tensor> concat_backward(
    const Tensor& grad, const std::vector<std::vector<int>>& shapes,
    int axis) {
    std::vector<Tensor> grads;
    grads.reserve(shapes.size());
    int outer = 0;
    int inner = 0;
    outer_inner(grad.shape(), axis, &outer, &inner);
    const int axis_total = grad.dim(axis);

    int axis_offset = 0;
    for (const std::vector<int>& shape : shapes) {
        Tensor g(shape);
        const int p_axis = shape[static_cast<std::size_t>(axis)];
        for (int o = 0; o < outer; ++o) {
            const float* src =
                grad.data() + (o * axis_total + axis_offset) * inner;
            float* dst = g.data() + o * p_axis * inner;
            for (int i = 0; i < p_axis * inner; ++i) dst[i] = src[i];
        }
        axis_offset += p_axis;
        grads.push_back(std::move(g));
    }
    return grads;
}

Tensor slice(const Tensor& a, int axis, int start, int stop) {
    assert(axis >= 0 && axis < a.rank());
    assert(0 <= start && start < stop && stop <= a.dim(axis));
    std::vector<int> out_shape = a.shape();
    out_shape[static_cast<std::size_t>(axis)] = stop - start;
    Tensor out(out_shape);

    int outer = 0;
    int inner = 0;
    outer_inner(a.shape(), axis, &outer, &inner);
    const int in_axis = a.dim(axis);
    const int out_axis = stop - start;
    for (int o = 0; o < outer; ++o) {
        const float* src = a.data() + (o * in_axis + start) * inner;
        float* dst = out.data() + o * out_axis * inner;
        for (int i = 0; i < out_axis * inner; ++i) dst[i] = src[i];
    }
    return out;
}

Tensor slice_backward(const Tensor& grad, const std::vector<int>& input_shape,
                      int axis, int start) {
    Tensor out(input_shape);
    int outer = 0;
    int inner = 0;
    outer_inner(input_shape, axis, &outer, &inner);
    const int in_axis = input_shape[static_cast<std::size_t>(axis)];
    const int out_axis = grad.dim(axis);
    for (int o = 0; o < outer; ++o) {
        const float* src = grad.data() + o * out_axis * inner;
        float* dst = out.data() + (o * in_axis + start) * inner;
        for (int i = 0; i < out_axis * inner; ++i) dst[i] += src[i];
    }
    return out;
}

Tensor map_to_tokens(const Tensor& feature_map) {
    assert(feature_map.rank() == 4);
    const int n = feature_map.dim(0);
    const int c = feature_map.dim(1);
    const int spatial = feature_map.dim(2) * feature_map.dim(3);
    return transpose_inner(feature_map, n, c, spatial)
        .reshaped({n * spatial, c});
}

Tensor tokens_to_map(const Tensor& tokens,
                     const std::vector<int>& map_shape) {
    assert(tokens.rank() == 2 && map_shape.size() == 4);
    const int n = map_shape[0];
    const int c = map_shape[1];
    const int spatial = map_shape[2] * map_shape[3];
    assert(tokens.dim(0) == n * spatial && tokens.dim(1) == c);
    return transpose_inner(tokens, n, spatial, c).reshaped(map_shape);
}

}  // namespace aero::tensor
