#include "memsim/trace_gen.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "common/magic_div.hpp"

namespace fpr::memsim {

namespace {

// Distinct base addresses per component so mixtures do not alias.
constexpr std::uint64_t kComponentSpacing = 1ull << 40;

std::uint64_t align_up(std::uint64_t v, std::uint64_t a) {
  return (v + a - 1) / a * a;
}

std::uint64_t gather_table_bytes(const GatherPattern& p) {
  return std::max<std::uint64_t>(p.table_bytes, 512);
}

// Floor at a few cache lines only: scaled-down tiles must stay small
// enough to preserve the blocking locality they model.
std::uint64_t blocked_tile_bytes(const BlockedPattern& p) {
  return std::max<std::uint64_t>(p.tile_bytes, 256);
}

std::uint64_t chase_node_bytes(const ChasePattern& p) {
  return std::max<std::uint32_t>(p.node_bytes, 8);
}

/// Why component `c` cannot drive a trace, or nullptr when it can.
const char* component_error(const AccessPatternSpec::Component& c) {
  if (!std::isfinite(c.weight) || c.weight <= 0.0) {
    return "weight must be finite and > 0";
  }
  if (const auto* g = std::get_if<GatherPattern>(&c.pattern)) {
    if (g->elem_bytes == 0) return "elem_bytes must be > 0";
    if (g->elem_bytes > gather_table_bytes(*g)) {
      return "elem_bytes must not exceed the table";
    }
  }
  if (const auto* b = std::get_if<BlockedPattern>(&c.pattern)) {
    // gen_n converts it to an integer phase length.
    if (!(b->tile_reuse < 0x1p63)) return "tile_reuse must be below 2^63";
  }
  return nullptr;
}

}  // namespace

struct TraceGenerator::ComponentState {
  Pattern pattern;
  std::uint64_t base = 0;
  Xoshiro256 rng;
  // Running cursor; each gen_n names the fields its pattern uses. It
  // starts at the trace's first reference and only gen_n moves it, so a
  // trace split across fill() calls is the trace of one call.
  std::array<std::uint64_t, 5> cur{};
  // Built once, at construction, from the pattern alone.
  std::vector<std::uint32_t> chase_order;  // ChasePattern: the ring
  std::vector<std::array<std::int64_t, 3>> stencil_offsets;
  MagicDiv slot_div;  // gather/blocked slot modulo

  ComponentState(Pattern p, std::uint64_t b, std::uint64_t seed)
      : pattern(std::move(p)), base(b), rng(seed) {
    std::visit([this](const auto& pat) { prepare(pat); }, pattern);
  }

  void prepare(const StreamPattern&) {}
  void prepare(const StridedPattern&) {}

  /// The (dx, dy, dz) neighbour offset of each stencil point.
  void prepare(const StencilPattern& p) {
    const int r = std::max(1, p.radius);
    const std::uint64_t pts =
        p.full_box ? static_cast<std::uint64_t>((2 * r + 1)) * (2 * r + 1) *
                         (2 * r + 1)
                   : static_cast<std::uint64_t>(6 * r + 1);
    stencil_offsets.assign(pts, {0, 0, 0});
    for (std::uint64_t k = 0; k < pts; ++k) {
      auto& d = stencil_offsets[k];
      if (p.full_box) {
        const std::uint64_t side = 2 * static_cast<std::uint64_t>(r) + 1;
        d[0] = static_cast<std::int64_t>(k % side) - r;
        d[1] = static_cast<std::int64_t>((k / side) % side) - r;
        d[2] = static_cast<std::int64_t>(k / (side * side)) - r;
      } else if (k > 0) {
        // star: center plus +-i along each axis
        const std::uint64_t axis = (k - 1) / (2 * r);
        const std::int64_t step =
            static_cast<std::int64_t>((k - 1) % (2 * r)) -
            static_cast<std::int64_t>(r) +
            (((k - 1) % (2 * r)) >= static_cast<std::uint64_t>(r) ? 1 : 0);
        if (axis == 0) d[0] = step;
        if (axis == 1) d[1] = step;
        if (axis == 2) d[2] = step;
      }
    }
  }

  void prepare(const GatherPattern& p) {
    slot_div = MagicDiv(gather_table_bytes(p) / p.elem_bytes);
  }

  /// The chase ring: a Sattolo shuffle, so one full cycle.
  void prepare(const ChasePattern& p) {
    const std::uint64_t nodes =
        std::max<std::uint64_t>(p.footprint_bytes / chase_node_bytes(p), 16);
    chase_order.resize(nodes);
    std::iota(chase_order.begin(), chase_order.end(), 0u);
    for (std::uint64_t i = nodes - 1; i > 0; --i) {
      const std::uint64_t j = rng.below(i);
      std::swap(chase_order[i], chase_order[j]);
    }
  }

  void prepare(const BlockedPattern& p) {
    slot_div = MagicDiv(blocked_tile_bytes(p) / 8);
  }

  /// Emit `n` consecutive references with a single variant dispatch.
  /// Each pattern's loop steps its cursor with one conditional wrap per
  /// reference instead of a div/mod, picks random slots through the
  /// hoisted reciprocal and reads the precomputed stencil offsets.
  void generate_n(MemRef* out, std::size_t n) {
    std::visit([&](const auto& pat) { gen_n(pat, out, n); }, pattern);
  }

  void gen_n(const StreamPattern& p, MemRef* out, std::size_t n) {
    // Effective length rounds down to the 8 B element size, so the offset
    // stays element-aligned across wraps when bytes_per_array is not a
    // multiple of 8.
    const std::uint64_t len =
        std::max<std::uint64_t>(p.bytes_per_array, 64) & ~std::uint64_t{7};
    const auto arrays = static_cast<std::uint64_t>(std::max(1, p.arrays));
    const std::uint64_t arr_stride = align_up(len, 4096);
    // Round-robin across arrays at the same element offset; the offset
    // advances by one 8 B element per full array round.
    std::uint64_t array = cur[0], off = cur[1];
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = {base + array * arr_stride + off,
                static_cast<int>(array) < p.writes_per_iter};
      if (++array == arrays) {
        array = 0;
        off += 8;
        if (off >= len) off -= len;
      }
    }
    cur = {array, off};
  }

  void gen_n(const StridedPattern& p, MemRef* out, std::size_t n) {
    const std::uint64_t fp = std::max<std::uint64_t>(p.footprint_bytes, 512);
    const std::uint64_t step = p.stride_bytes % fp;
    std::uint64_t off = cur[0];
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = {base + off, false};
      off += step;
      if (off >= fp) off -= fp;
    }
    cur = {off};
  }

  void gen_n(const StencilPattern& p, MemRef* out, std::size_t n) {
    const std::uint64_t nx = std::max<std::uint64_t>(p.nx, 4);
    const std::uint64_t ny = std::max<std::uint64_t>(p.ny, 4);
    const std::uint64_t nz = std::max<std::uint64_t>(p.nz, 4);
    const std::uint64_t cells = nx * ny * nz;
    const std::uint64_t pts = stencil_offsets.size();
    // Cursor: (cell, k) with k in [0, pts] — k == pts is the write of the
    // destination cell (second grid); cell advances by one (wrapping at
    // cells) after the write. (x, y, z) are the cell's coordinates.
    std::uint64_t cell = cur[0], k = cur[1], x = cur[2], y = cur[3],
                  z = cur[4];
    const std::uint64_t out_base = cells * p.elem_bytes;
    auto clampc = [](std::uint64_t v, std::int64_t d, std::uint64_t hi) {
      const auto s = static_cast<std::int64_t>(v) + d;
      return static_cast<std::uint64_t>(
          std::clamp<std::int64_t>(s, 0, static_cast<std::int64_t>(hi) - 1));
    };
    for (std::size_t i = 0; i < n; ++i) {
      if (k == pts) {
        out[i] = {base + out_base + cell * p.elem_bytes, true};
        k = 0;
        ++cell;
        ++x;
        if (x == nx) {
          x = 0;
          ++y;
          if (y == ny) {
            y = 0;
            ++z;
          }
        }
        if (cell == cells) {
          cell = 0;
          x = y = z = 0;
        }
      } else {
        const auto& d = stencil_offsets[k];
        const std::uint64_t idx =
            clampc(x, d[0], nx) +
            nx * (clampc(y, d[1], ny) + ny * clampc(z, d[2], nz));
        out[i] = {base + idx * p.elem_bytes, false};
        ++k;
      }
    }
    cur = {cell, k, x, y, z};
  }

  void gen_n(const GatherPattern& p, MemRef* out, std::size_t n) {
    // The sequential stream cycles inside the declared table range: a
    // separate window would double the simulated footprint beyond the
    // table_bytes that capacity scaling accounts for.
    const std::uint64_t table = gather_table_bytes(p);
    std::uint64_t off = cur[0];
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.uniform() < p.sequential_fraction) {
        out[i] = {base + off, false};
        off += 8;
        if (off >= table) off -= table;
      } else {
        const std::uint64_t slot = slot_div.mod(rng.next());
        out[i] = {base + slot * p.elem_bytes, false};
      }
    }
    cur = {off};
  }

  void gen_n(const ChasePattern& p, MemRef* out, std::size_t n) {
    // One table load per reference, as a real chase would have.
    const std::uint64_t node = chase_node_bytes(p);
    std::uint64_t at = cur[0];
    for (std::size_t i = 0; i < n; ++i) {
      at = chase_order[at];
      out[i] = {base + at * node, false};
    }
    cur = {at};
  }

  void gen_n(const BlockedPattern& p, MemRef* out, std::size_t n) {
    const std::uint64_t tile = blocked_tile_bytes(p);
    const std::uint64_t matrix =
        std::max<std::uint64_t>(p.matrix_bytes, tile);
    // For every streamed 8 B element of the matrix (so consecutive stream
    // refs share cache lines, as a real GEMM panel stream does), make
    // `tile_reuse` touches of the current tile, the last one a write; the
    // tile base advances as the stream crosses tiles.
    const double reuse = std::max(1.0, p.tile_reuse);
    const auto phase = static_cast<std::uint64_t>(reuse) + 1;
    std::uint64_t step = cur[0], stream_off = cur[1], tile_base = cur[2],
                  streamed = cur[3];
    for (std::size_t i = 0; i < n; ++i) {
      if (step == 0) {
        out[i] = {base + stream_off, false};
        ++streamed;
        stream_off += 8;
        if (stream_off >= matrix) stream_off -= matrix;
        tile_base = ((streamed * 8) / tile) * tile % matrix;
      } else {
        std::uint64_t addr = tile_base + slot_div.mod(rng.next()) * 8;
        if (addr >= matrix) addr -= matrix;
        out[i] = {base + addr, step == phase - 1};
      }
      if (++step == phase) step = 0;
    }
    cur = {step, stream_off, tile_base, streamed};
  }
};

TraceGenerator::~TraceGenerator() = default;
TraceGenerator::TraceGenerator(TraceGenerator&&) noexcept = default;
TraceGenerator& TraceGenerator::operator=(TraceGenerator&&) noexcept =
    default;

TraceGenerator::TraceGenerator(const AccessPatternSpec& spec,
                               std::uint64_t seed)
    : rng_(seed ^ 0x5851f42d4c957f2dull) {
  if (spec.components.empty()) {
    throw std::invalid_argument("AccessPatternSpec has no components");
  }
  double total = 0.0;
  for (std::size_t i = 0; i < spec.components.size(); ++i) {
    const auto& c = spec.components[i];
    if (const char* why = component_error(c)) {
      std::string msg = "pattern component " + std::to_string(i);
      msg += " (" + pattern_name(c.pattern) + "): ";
      msg += why;
      throw std::invalid_argument(msg);
    }
    total += c.weight;
  }
  double run = 0.0;
  std::uint64_t idx = 0;
  SplitMix64 sm(seed);
  for (const auto& c : spec.components) {
    run += c.weight / total;
    cumulative_.push_back(run);
    comps_.push_back(std::make_unique<ComponentState>(
        c.pattern, (idx + 1) * kComponentSpacing, sm.next()));
    ++idx;
  }
  cumulative_.back() = 1.0;  // guard against rounding
}

void TraceGenerator::fill(MemRef* out, std::size_t n) {
  // Block size bounds the selection scratch and keeps it cache-resident.
  constexpr std::size_t kBlock = 4096;

  if (comps_.size() == 1) {  // no mixture to sample
    comps_[0]->generate_n(out, n);
    return;
  }

  select_.resize(std::min(n, kBlock));
  const std::uint32_t last =
      static_cast<std::uint32_t>(comps_.size()) - 1;
  std::size_t done = 0;
  while (done < n) {
    const std::size_t block = std::min(n - done, kBlock);
    // Sample the mixture for the whole block first: the first component
    // whose cumulative weight reaches u (cumulative_.back() == 1.0 > u
    // caps the linear scan; component counts are tiny).
    const double* cdf = cumulative_.data();
    for (std::size_t k = 0; k < block; ++k) {
      const double u = rng_.uniform();
      std::uint32_t c = 0;
      while (c < last && cdf[c] < u) ++c;
      select_[k] = c;
    }
    // Emit per-component runs: one variant dispatch per run instead of
    // one per reference.
    std::size_t k = 0;
    while (k < block) {
      const std::uint32_t c = select_[k];
      std::size_t end = k + 1;
      while (end < block && select_[end] == c) ++end;
      comps_[c]->generate_n(out + done + k, end - k);
      k = end;
    }
    done += block;
  }
}

std::string pattern_name(const Pattern& p) {
  struct Visitor {
    std::string operator()(const StreamPattern&) const { return "stream"; }
    std::string operator()(const StridedPattern&) const { return "strided"; }
    std::string operator()(const StencilPattern&) const { return "stencil"; }
    std::string operator()(const GatherPattern&) const { return "gather"; }
    std::string operator()(const ChasePattern&) const { return "chase"; }
    std::string operator()(const BlockedPattern&) const { return "blocked"; }
  };
  return std::visit(Visitor{}, p);
}

}  // namespace fpr::memsim
