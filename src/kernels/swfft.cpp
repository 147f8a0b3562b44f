// SWFFT (FFT): the 3-D FFT compute kernel of the HACC cosmology code
// (Sec. II-B1k) — one performance-critical part of HACC's Poisson
// solver. Paper input: 32 repetitions on a 128^3 grid. Re-implemented
// as an iterative radix-2 complex FFT applied along each dimension
// (pencil order), with bit-reversal index work counted as the integer
// component (Table IV: INT ~3.3x FP64).
#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <numbers>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/rng.hpp"
#include "kernels/kernel_base.hpp"

namespace fpr::kernels {

namespace {

constexpr std::uint64_t kPaperDim = 128;
constexpr int kPaperReps = 32;

constexpr std::uint64_t kRunDim = 32;  // must be a power of two
constexpr int kRunReps = 2;

using cplx = std::complex<double>;

// In-place radix-2 DIT FFT of length n (power of two). Returns
// (fp_ops, int_ops) counted at lane granularity.
std::pair<std::uint64_t, std::uint64_t> fft1d(cplx* a, std::uint64_t n,
                                              bool inverse) {
  std::uint64_t fp = 0, iops = 0;
  // Bit reversal permutation.
  const unsigned bits = static_cast<unsigned>(std::countr_zero(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t j = 0;
    for (unsigned bctr = 0; bctr < bits; ++bctr) {
      j |= ((i >> bctr) & 1u) << (bits - 1 - bctr);
    }
    iops += 3 * bits + 2;
    if (j > i) std::swap(a[i], a[j]);
  }
  // Butterflies.
  const double sign = inverse ? 1.0 : -1.0;
  for (std::uint64_t len = 2; len <= n; len <<= 1) {
    const double ang = sign * 2.0 * std::numbers::pi /
                       static_cast<double>(len);
    const cplx wl(std::cos(ang), std::sin(ang));
    for (std::uint64_t i = 0; i < n; i += len) {
      cplx w(1.0, 0.0);
      for (std::uint64_t k = 0; k < len / 2; ++k) {
        const cplx u = a[i + k];
        const cplx v = a[i + k + len / 2] * w;
        a[i + k] = u + v;
        a[i + k + len / 2] = u - v;
        w *= wl;
        fp += 16;    // cmul(6) + 2 cadd(4) + twiddle update(6)
        iops += 12;  // index arithmetic per butterfly (strides, offsets)
      }
    }
  }
  if (inverse) {
    const double inv = 1.0 / static_cast<double>(n);
    for (std::uint64_t i = 0; i < n; ++i) a[i] *= inv;
    fp += 2 * n;
  }
  return {fp, iops};
}

}  // namespace

WorkloadMeasurement run_swfft(const KernelInfo& info, ExecutionContext& ctx,
                              const RunConfig& cfg) {
  std::uint64_t d = kRunDim;
  // Snap the scaled dimension to a power of two.
  const std::uint64_t want = scaled_dim(kRunDim, cfg.scale);
  d = std::bit_floor(std::max<std::uint64_t>(want, 8));
  const std::uint64_t n = d * d * d;

  AlignedBuffer<cplx> grid(n);
  Xoshiro256 rng(cfg.seed);
  for (auto& v : grid) v = cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
  std::vector<cplx> original(grid.begin(), grid.end());

  // Parseval reference: sum |x|^2.
  double sum2_in = 0.0;
  for (const auto& v : grid) sum2_in += std::norm(v);

  auto pass = [&](int dim, bool inverse) {
    // Apply 1-D FFTs along `dim` for all pencils, in parallel.
    ctx.parallel_for(
        d * d, [&](std::size_t lo, std::size_t hi, unsigned) {
          std::vector<cplx> pencil(d);
          std::uint64_t fp = 0, iops = 0;
          for (std::size_t p = lo; p < hi; ++p) {
            const std::uint64_t s = p % d, t = p / d;
            // Gather the pencil.
            for (std::uint64_t i = 0; i < d; ++i) {
              std::uint64_t idx = 0;
              if (dim == 0) idx = i + d * (s + d * t);
              if (dim == 1) idx = s + d * (i + d * t);
              if (dim == 2) idx = s + d * (t + d * i);
              pencil[i] = grid[idx];
            }
            iops += 4 * d;
            const auto [f2, i2] = fft1d(pencil.data(), d, inverse);
            fp += f2;
            iops += i2;
            for (std::uint64_t i = 0; i < d; ++i) {
              std::uint64_t idx = 0;
              if (dim == 0) idx = i + d * (s + d * t);
              if (dim == 1) idx = s + d * (i + d * t);
              if (dim == 2) idx = s + d * (t + d * i);
              grid[idx] = pencil[i];
            }
            iops += 4 * d;
          }
          counters::add_fp64(fp);
          // Bit-reversal and stride arithmetic counted at vector-lane
          // granularity (Table IV: SWFFT INT ~3.3x FP64).
          counters::add_int(iops * 3);
          counters::add_read_bytes((hi - lo) * d * 32);
          counters::add_write_bytes((hi - lo) * d * 16);
        });
  };

  double sum2_freq = 0.0;
  const auto rec = assayed(ctx, [&] {
    for (int rep = 0; rep < kRunReps; ++rep) {
      for (int dim = 0; dim < 3; ++dim) pass(dim, false);
      if (rep == 0) {
        sum2_freq = 0.0;
        for (const auto& v : grid) sum2_freq += std::norm(v);
      }
      for (int dim = 0; dim < 3; ++dim) pass(dim, true);
    }
  });

  // Parseval: sum |X|^2 = N * sum |x|^2, and round-trip recovers input.
  require_close(info, sum2_freq, sum2_in * static_cast<double>(n), 1e-9,
                "Parseval identity");
  double max_err = 0.0;
  for (std::uint64_t i = 0; i < n; i += 41) {
    max_err = std::max(max_err, std::abs(grid[i] - original[i]));
  }
  require(info, max_err < 1e-9, "inverse FFT round trip");

  const double paper_vol = static_cast<double>(kPaperDim) * kPaperDim *
                           kPaperDim * 3.0 *
                           std::log2(static_cast<double>(kPaperDim)) *
                           kPaperReps * 2;
  const double run_vol = static_cast<double>(n) * 3.0 *
                         std::log2(static_cast<double>(d)) * kRunReps * 2;
  const double ops_scale = paper_vol / run_vol;
  const auto paper_ws = static_cast<std::uint64_t>(
      static_cast<double>(kPaperDim) * kPaperDim * kPaperDim * 16.0 * 2);

  memsim::AccessPatternSpec access;
  memsim::StridedPattern sp;  // transposed pencil passes
  sp.footprint_bytes = paper_ws;
  sp.stride_bytes = static_cast<std::uint32_t>(kPaperDim * 16);
  access.components.push_back({sp, 0.5});
  memsim::StreamPattern st;
  st.bytes_per_array = paper_ws / 2;
  st.arrays = 2;
  st.writes_per_iter = 1;
  access.components.push_back({st, 0.5});

  KernelTraits traits;
  traits.vec_eff = 0.035;  // calibrated: ~2.5x Table IV achieved rate;
                       // this kernel is memory-bound on BDW (high
                       // MBd in Table IV), so the memory term binds
  traits.int_eff = 0.40;
  traits.phi_vec_penalty = 3.2;   // Table IV: BDW-vs-KNL efficiency ratio
  traits.int_lane_inflation = 3.0;  // SDE lane-granular int counting
  traits.serial_fraction = 0.01;
  traits.latency_dep_fraction = 0.02;

  return finish_measurement(info, rec, ops_scale, paper_ws, access, traits,
                            sum2_freq);
}

}  // namespace fpr::kernels
