// mVMC (many-variable Variational Monte Carlo, Sec. II-B2d): quantum
// lattice-model simulation. The computational core is dense linear
// algebra on the Slater matrix: Metropolis moves evaluate determinant
// ratios (a dot product against the maintained inverse) and accepted
// moves apply rank-1 Sherman-Morrison updates (2N^2 flops) — exactly the
// dense FP64 profile of Table IV (1142 GFP64).
#include <algorithm>
#include <cmath>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/rng.hpp"
#include "kernels/kernel_base.hpp"

namespace fpr::kernels {

namespace {

constexpr std::uint64_t kPaperN = 512;      // electrons
constexpr std::uint64_t kPaperSweeps = 4000;

constexpr std::uint64_t kRunN = 72;
constexpr std::uint64_t kRunSweeps = 40;

// log|det| via LU with partial pivoting, plus the FP64 operations it
// performed. It counts nothing itself: the assayed call adds `fp64`, and
// the verification call after the assay runs outside any context.
struct LogDet {
  double value = 0.0;
  std::uint64_t fp64 = 0;
};

LogDet logdet_lu(std::vector<double> a, std::uint64_t n) {
  double ld = 0.0;
  std::uint64_t fp = 0;
  for (std::uint64_t k = 0; k < n; ++k) {
    std::uint64_t p = k;
    for (std::uint64_t i = k + 1; i < n; ++i) {
      if (std::abs(a[i * n + k]) > std::abs(a[p * n + k])) p = i;
    }
    if (p != k) {
      for (std::uint64_t j = 0; j < n; ++j) std::swap(a[k * n + j], a[p * n + j]);
    }
    const double piv = a[k * n + k];
    ld += std::log(std::abs(piv));
    for (std::uint64_t i = k + 1; i < n; ++i) {
      const double m = a[i * n + k] / piv;
      for (std::uint64_t j = k + 1; j < n; ++j) {
        a[i * n + j] -= m * a[k * n + j];
      }
      fp += 2 * (n - k);
    }
  }
  return {ld, fp + 3 * n};
}

}  // namespace

WorkloadMeasurement run_mvmc(const KernelInfo& info, ExecutionContext& ctx,
                             const RunConfig& cfg) {
  const std::uint64_t n = scaled_n(kRunN, std::sqrt(cfg.scale));

  // Slater-like matrix: orbital amplitudes, diagonally enhanced so it is
  // comfortably non-singular.
  Xoshiro256 rng(cfg.seed);
  std::vector<double> phi(n * n), w(n * n, 0.0);  // w = phi^-1
  for (std::uint64_t i = 0; i < n * n; ++i) phi[i] = rng.uniform(-0.5, 0.5);
  for (std::uint64_t i = 0; i < n; ++i) phi[i * n + i] += 2.0;

  // Build the inverse by Gauss-Jordan (counted; part of setup inside the
  // kernel region, as mVMC recomputes inverses periodically).
  double logdet_running = 0.0;
  std::uint64_t accepted = 0, proposed = 0;

  const auto rec = assayed(ctx, [&] {
    // Invert phi into w.
    {
      std::vector<double> a = phi;
      for (std::uint64_t i = 0; i < n; ++i) w[i * n + i] = 1.0;
      std::uint64_t fp = 0;
      for (std::uint64_t k = 0; k < n; ++k) {
        // Partial pivot.
        std::uint64_t p = k;
        for (std::uint64_t i = k + 1; i < n; ++i) {
          if (std::abs(a[i * n + k]) > std::abs(a[p * n + k])) p = i;
        }
        if (p != k) {
          for (std::uint64_t j = 0; j < n; ++j) {
            std::swap(a[k * n + j], a[p * n + j]);
            std::swap(w[k * n + j], w[p * n + j]);
          }
        }
        const double inv = 1.0 / a[k * n + k];
        for (std::uint64_t j = 0; j < n; ++j) {
          a[k * n + j] *= inv;
          w[k * n + j] *= inv;
        }
        fp += 4 * n + 1;
        for (std::uint64_t i = 0; i < n; ++i) {
          if (i == k) continue;
          const double m = a[i * n + k];
          for (std::uint64_t j = 0; j < n; ++j) {
            a[i * n + j] -= m * a[k * n + j];
            w[i * n + j] -= m * w[k * n + j];
          }
          fp += 4 * n;
        }
      }
      counters::add_fp64(fp);
      counters::add_int(fp / 8);
      counters::add_read_bytes(fp * 8);
      counters::add_write_bytes(fp * 4);
    }
    const LogDet initial = logdet_lu(phi, n);
    counters::add_fp64(initial.fp64);
    logdet_running = initial.value;

    // Metropolis sweeps: replace one row of phi with a proposed orbital
    // configuration; ratio = v . w[:,k]; accept per |ratio|.
    Xoshiro256 mc(cfg.seed ^ 0x77);
    std::vector<double> v(n), wk(n);
    for (std::uint64_t sweep = 0; sweep < kRunSweeps; ++sweep) {
      for (std::uint64_t mv = 0; mv < n; ++mv) {
        const std::uint64_t k = mc.below(n);
        for (std::uint64_t j = 0; j < n; ++j) {
          v[j] = phi[k * n + j] + mc.uniform(-0.25, 0.25);
        }
        // ratio = sum_j v[j] * w[j*n + k]  (column k of the inverse)
        double ratio = 0.0;
        for (std::uint64_t j = 0; j < n; ++j) ratio += v[j] * w[j * n + k];
        counters::add_fp64(2 * n + 2 * n);
        counters::add_int(3 * n);
        counters::add_read_bytes(24 * n);
        ++proposed;
        counters::add_branch(1);
        if (std::abs(ratio) > mc.uniform(0.0, 1.2)) {
          // Accept: Sherman-Morrison row update of the inverse,
          // parallel over columns. W' = W - (W e_k^T u W)/(1+...)
          ++accepted;
          logdet_running += std::log(std::abs(ratio));
          for (std::uint64_t j = 0; j < n; ++j) wk[j] = w[j * n + k];
          // u = v - old row; W'_{jl} = W_jl - wk_j * (v.W_l - delta)/ratio
          std::vector<double> vw(n, 0.0);
          ctx.parallel_for(
              n, [&](std::size_t lo, std::size_t hi, unsigned) {
                std::uint64_t fp = 0;
                for (std::size_t l = lo; l < hi; ++l) {
                  double s = 0.0;
                  for (std::uint64_t j = 0; j < n; ++j) {
                    s += v[j] * w[j * n + l];
                  }
                  vw[l] = s;
                  fp += 2 * n;
                }
                counters::add_fp64(fp);
                counters::add_read_bytes(fp * 8);
              });
          ctx.parallel_for(
              n, [&](std::size_t lo, std::size_t hi, unsigned) {
                std::uint64_t fp = 0;
                for (std::size_t j = lo; j < hi; ++j) {
                  const double c = wk[j] / ratio;
                  for (std::uint64_t l = 0; l < n; ++l) {
                    w[j * n + l] -= c * (vw[l] - (l == k ? 1.0 : 0.0));
                  }
                  fp += 2 * n + 1;
                }
                counters::add_fp64(fp);
                // Walker bookkeeping + lattice-index arithmetic around
                // the updates (Table IV: mVMC INT ~1.5-2x FP64).
                counters::add_int(fp * 3 / 2);
                counters::add_read_bytes(fp * 8);
                counters::add_write_bytes(fp * 8);
              });
          for (std::uint64_t j = 0; j < n; ++j) phi[k * n + j] = v[j];
        }
      }
    }
  });

  require(info, accepted > 0 && accepted < proposed,
          "MC explored configurations");
  // Verification: the incrementally tracked log|det| must match a fresh
  // LU factorization of the final matrix.
  const double logdet_fresh = logdet_lu(phi, n).value;
  require_close(info, logdet_running, logdet_fresh,
                1e-6 * std::max(1.0, std::abs(logdet_fresh)) * 100,
                "incremental log-det consistency");

  const double paper_vol = static_cast<double>(kPaperN) * kPaperN * kPaperN *
                           static_cast<double>(kPaperSweeps) / 100.0;
  const double run_vol = static_cast<double>(n) * n * n *
                         static_cast<double>(kRunSweeps) / 100.0;
  const double ops_scale = paper_vol / run_vol;
  const auto paper_ws = static_cast<std::uint64_t>(
      static_cast<double>(kPaperN) * kPaperN * 8.0 * 4 * 32);  // walkers

  memsim::BlockedPattern bp;
  bp.matrix_bytes = paper_ws;
  bp.tile_bytes = kPaperN * 8 * 16;
  bp.tile_reuse = 12.0;

  KernelTraits traits;
  traits.vec_eff = 0.123;  // calibrated: Table IV achieved rate
  traits.int_eff = 0.40;
  traits.phi_vec_penalty = 4.0;   // Table IV: BDW-vs-KNL efficiency ratio
  traits.int_lane_inflation = 2.0;  // SDE lane-granular int counting
  traits.serial_fraction = 0.02;
  traits.latency_dep_fraction = 0.0;

  return finish_measurement(info, rec, ops_scale, paper_ws,
                            memsim::AccessPatternSpec::single(bp), traits,
                            logdet_running);
}

}  // namespace fpr::kernels
