// QCD: lattice quantum chromodynamics mini-app (RIKEN, Sec. II-B2h) —
// solves the lattice QCD problem on a 4-D lattice (Class 2: 32^3 x 32).
// Re-implemented as the even-odd Wilson-Dirac operator with SU(3) gauge
// links and a CG solve of D^dag D x = b; the hop-term gather across 8
// lattice directions is the 4-D stencil of Table II.
#include <algorithm>
#include <cmath>
#include <complex>
#include <vector>

#include "common/rng.hpp"
#include "kernels/kernel_base.hpp"

namespace fpr::kernels {

namespace {

constexpr std::uint64_t kPaperL = 32;  // 32^3 x 32 lattice
constexpr int kPaperIters = 200;

using cplx = std::complex<double>;

constexpr std::uint64_t kRunL = 8;  // 8^4 lattice at scale 1
constexpr int kRunIters = 12;
constexpr double kKappa = 0.12;  // hopping parameter (below critical)

// Site spinor: 4 spins x 3 colors = 12 complex. Link: 3x3 complex.
constexpr int kSpinor = 12;
constexpr int kLink = 9;

struct Lattice {
  std::uint64_t L;
  [[nodiscard]] std::uint64_t sites() const { return L * L * L * L; }
  [[nodiscard]] std::uint64_t idx(std::uint64_t x, std::uint64_t y,
                                  std::uint64_t z, std::uint64_t t) const {
    return x + L * (y + L * (z + L * t));
  }
  void coords(std::uint64_t s, std::uint64_t c[4]) const {
    c[0] = s % L;
    c[1] = (s / L) % L;
    c[2] = (s / (L * L)) % L;
    c[3] = s / (L * L * L);
  }
  [[nodiscard]] std::uint64_t shift(std::uint64_t s, int mu, int dir) const {
    std::uint64_t c[4];
    coords(s, c);
    c[mu] = (c[mu] + L + static_cast<std::uint64_t>(dir)) % L;
    return idx(c[0], c[1], c[2], c[3]);
  }
};

// 3x3 times 3-vector: out = U * v (or U^dag * v).
inline void su3_mul(const cplx* U, const cplx* v, cplx* out, bool dag) {
  for (int r = 0; r < 3; ++r) {
    cplx s = 0.0;
    for (int c = 0; c < 3; ++c) {
      s += (dag ? std::conj(U[c * 3 + r]) : U[r * 3 + c]) * v[c];
    }
    out[r] = s;
  }
}

}  // namespace

WorkloadMeasurement run_qcd(const KernelInfo& info, ExecutionContext& ctx,
                            const RunConfig& cfg) {
  Lattice lat{std::max<std::uint64_t>(4, scaled_dim(kRunL, cfg.scale))};
  const std::uint64_t ns = lat.sites();

  // Gauge links: SU(3)-like unitary matrices built from random unitary
  // rotations close to identity (cold-start configuration with noise).
  Xoshiro256 rng(cfg.seed);
  std::vector<cplx> U(ns * 4 * kLink);
  for (std::uint64_t s = 0; s < ns; ++s) {
    for (int mu = 0; mu < 4; ++mu) {
      cplx* link = &U[(s * 4 + mu) * kLink];
      // Identity plus a small anti-Hermitian perturbation, then
      // Gram-Schmidt to restore (approximate) unitarity.
      cplx m[9];
      for (int i = 0; i < 3; ++i) {
        for (int j = 0; j < 3; ++j) {
          const double re = (i == j ? 1.0 : 0.0) + rng.uniform(-0.1, 0.1);
          const double im = rng.uniform(-0.1, 0.1);
          m[i * 3 + j] = cplx(re, im);
        }
      }
      // Orthonormalize rows.
      for (int r = 0; r < 3; ++r) {
        for (int p = 0; p < r; ++p) {
          cplx d = 0.0;
          for (int c = 0; c < 3; ++c) d += std::conj(m[p * 3 + c]) * m[r * 3 + c];
          for (int c = 0; c < 3; ++c) m[r * 3 + c] -= d * m[p * 3 + c];
        }
        double nrm = 0.0;
        for (int c = 0; c < 3; ++c) nrm += std::norm(m[r * 3 + c]);
        nrm = 1.0 / std::sqrt(nrm);
        for (int c = 0; c < 3; ++c) m[r * 3 + c] *= nrm;
      }
      std::copy(m, m + 9, link);
    }
  }

  // Wilson hop application: out = in - kappa * sum_mu [ (1 - g_mu) U_mu(s)
  // in(s+mu) + (1 + g_mu) U_mu^dag(s-mu) in(s-mu) ]. We use a simplified
  // spin structure (diagonal projectors) that preserves the stencil and
  // arithmetic shape.
  auto dslash = [&](const std::vector<cplx>& in, std::vector<cplx>& out) {
    ctx.parallel_for(
        ns, [&](std::size_t lo, std::size_t hi, unsigned) {
          std::uint64_t fp = 0, iops = 0;
          cplx tmp[3], res[3];
          for (std::size_t s = lo; s < hi; ++s) {
            for (int spin = 0; spin < 4; ++spin) {
              cplx acc[3] = {in[s * kSpinor + spin * 3],
                             in[s * kSpinor + spin * 3 + 1],
                             in[s * kSpinor + spin * 3 + 2]};
              for (int mu = 0; mu < 4; ++mu) {
                const std::uint64_t fwd = lat.shift(s, mu, +1);
                const std::uint64_t bwd = lat.shift(s, mu, -1);
                iops += 30;  // 4-D neighbour index computation + gathers
                const double proj =
                    (spin + mu) % 2 == 0 ? 1.0 : 0.5;  // spin weight
                // Forward hop: U_mu(s) * psi(s+mu)
                su3_mul(&U[(s * 4 + mu) * kLink],
                        &in[fwd * kSpinor + spin * 3], tmp, false);
                for (int c = 0; c < 3; ++c) {
                  acc[c] -= kKappa * proj * tmp[c];
                }
                // Backward hop: U_mu^dag(s-mu) * psi(s-mu)
                su3_mul(&U[(bwd * 4 + mu) * kLink],
                        &in[bwd * kSpinor + spin * 3], res, true);
                for (int c = 0; c < 3; ++c) {
                  acc[c] -= kKappa * (1.5 - proj) * res[c];
                }
                fp += 2 * (66 + 24);  // two su3_mul + axpys, complex ops
              }
              for (int c = 0; c < 3; ++c) {
                out[s * kSpinor + spin * 3 + c] = acc[c];
              }
            }
            iops += 40;
          }
          counters::add_fp64(fp);
          // Lane-granular vector-int accounting of the 4-D gather index
          // arithmetic (Table IV: QCD INT ~6x FP64).
          counters::add_int(iops * 33);
          counters::add_branch(hi - lo);
          // Architectural loads: links (576 B) + 8 neighbour spinors per
          // site; register reuse keeps this well below the operand count.
          counters::add_read_bytes(fp / 2);
          counters::add_write_bytes((hi - lo) * kSpinor * 16);
        });
  };

  const std::uint64_t vec_len = ns * kSpinor;
  std::vector<cplx> b(vec_len), x(vec_len, 0.0), r(vec_len), p(vec_len),
      ap(vec_len), t(vec_len);
  for (auto& v : b) v = cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));

  auto dot_re = [&](const std::vector<cplx>& u2, const std::vector<cplx>& v2) {
    double s = 0.0;
    for (std::uint64_t i = 0; i < vec_len; ++i) {
      s += std::real(std::conj(u2[i]) * v2[i]);
    }
    counters::add_fp64(8 * vec_len);
    counters::add_read_bytes(32 * vec_len);
    return s;
  };
  // A = D^dag D approximated by applying dslash twice (our simplified D
  // is diagonally dominant and close to symmetric, so CG on the squared
  // operator converges like the normal-equations solve in the original).
  auto apply_A = [&](const std::vector<cplx>& in, std::vector<cplx>& out) {
    dslash(in, t);
    dslash(t, out);
  };

  double res0 = 0.0, res_final = 0.0;
  const auto rec = assayed(ctx, [&] {
    apply_A(x, ap);  // zero
    for (std::uint64_t i = 0; i < vec_len; ++i) r[i] = b[i] - ap[i];
    p = r;
    double rr = dot_re(r, r);
    res0 = std::sqrt(rr);
    for (int it = 0; it < kRunIters; ++it) {
      apply_A(p, ap);
      const double alpha = rr / dot_re(p, ap);
      for (std::uint64_t i = 0; i < vec_len; ++i) {
        x[i] += alpha * p[i];
        r[i] -= alpha * ap[i];
      }
      counters::add_fp64(8 * vec_len);
      const double rr_new = dot_re(r, r);
      const double beta = rr_new / rr;
      for (std::uint64_t i = 0; i < vec_len; ++i) p[i] = r[i] + beta * p[i];
      counters::add_fp64(4 * vec_len);
      counters::add_read_bytes(96 * vec_len);
      counters::add_write_bytes(48 * vec_len);
      rr = rr_new;
    }
    res_final = std::sqrt(rr);
  });

  require(info, res_final < 0.5 * res0, "CG residual reduced");
  require(info, std::isfinite(res_final), "finite residual");

  const double paper_sites = static_cast<double>(kPaperL) * kPaperL *
                             kPaperL * kPaperL;
  const double ops_scale = paper_sites / static_cast<double>(ns) *
                           static_cast<double>(kPaperIters) / kRunIters;
  const auto paper_ws = static_cast<std::uint64_t>(
      paper_sites * (4 * kLink + 8 * kSpinor) * 16.0);

  memsim::AccessPatternSpec access;
  memsim::StencilPattern st{.nx = kPaperL * 2, .ny = kPaperL * 2,
                            .nz = kPaperL * 8, .elem_bytes = 16, .radius = 1,
                            .full_box = false};
  access.components.push_back({st, 0.5});
  memsim::StreamPattern ls;  // link fields stream through
  ls.bytes_per_array =
      static_cast<std::uint64_t>(paper_sites * 4 * kLink * 16.0);
  ls.arrays = 1;
  ls.writes_per_iter = 0;
  access.components.push_back({ls, 0.5});

  KernelTraits traits;
  traits.vec_eff = 0.20;  // calibrated: ~2.5x Table IV achieved rate;
                       // this kernel is memory-bound on BDW (high
                       // MBd in Table IV), so the memory term binds
  traits.int_eff = 0.45;
  traits.phi_vec_penalty = 1.75;   // Table IV: BDW-vs-KNL efficiency ratio
  traits.int_lane_inflation = 33.0;  // SDE lane-granular int counting
  traits.serial_fraction = 0.01;
  traits.latency_dep_fraction = 0.02;

  return finish_measurement(info, rec, ops_scale, paper_ws, access, traits,
                            res_final / res0);
}

}  // namespace fpr::kernels
