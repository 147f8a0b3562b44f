// NTChem (NTCh): quantum-chemistry kernel (Sec. II-B2g) — the MP2
// (second-order Moller-Plesset) solver of the NTChem framework, paper
// test case H2O. The computational core is the AO->MO four-index
// integral transformation: a chain of dense GEMMs, followed by the MP2
// pair-energy sum. Verified by computing a sampled subset of transformed
// integrals directly from the quadruple contraction.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "kernels/kernel_base.hpp"

namespace fpr::kernels {

namespace {

constexpr std::uint64_t kPaperBasis = 212;  // H2O aug-cc-pVQZ-ish

constexpr std::uint64_t kRunBasis = 26;  // AO basis functions at scale 1
constexpr std::uint64_t kOcc = 5;        // occupied orbitals (H2O: 5)

}  // namespace

WorkloadMeasurement run_ntchem(const KernelInfo& info, ExecutionContext& ctx,
                               const RunConfig& cfg) {
  const std::uint64_t nbf = scaled_n(kRunBasis, std::cbrt(cfg.scale));
  const std::uint64_t nocc = kOcc;
  const std::uint64_t nvir = nbf - nocc;

  // Synthetic AO integrals with 8-fold-symmetric structure via a
  // low-rank Cholesky-like factorization: (uv|ls) = sum_p B[p,uv] B[p,ls].
  const std::uint64_t rank = 3 * nbf;
  Xoshiro256 rng(cfg.seed);
  std::vector<double> B(rank * nbf * nbf);
  for (std::uint64_t p = 0; p < rank; ++p) {
    // symmetric in (u,v)
    for (std::uint64_t u2 = 0; u2 < nbf; ++u2) {
      for (std::uint64_t v2 = u2; v2 < nbf; ++v2) {
        const double val = rng.uniform(-0.2, 0.2) /
                           (1.0 + std::abs(static_cast<double>(u2) -
                                           static_cast<double>(v2)));
        B[(p * nbf + u2) * nbf + v2] = val;
        B[(p * nbf + v2) * nbf + u2] = val;
      }
    }
  }
  // MO coefficients: random orthogonal-ish (Gram-Schmidt-lite) matrix.
  std::vector<double> C(nbf * nbf);
  for (auto& v : C) v = rng.uniform(-1.0, 1.0);
  for (std::uint64_t i = 0; i < nbf; ++i) {
    // normalize column i against previous columns (cheap orthogonalize)
    for (std::uint64_t j = 0; j < i; ++j) {
      double d = 0.0;
      for (std::uint64_t k = 0; k < nbf; ++k) {
        d += C[k * nbf + i] * C[k * nbf + j];
      }
      for (std::uint64_t k = 0; k < nbf; ++k) {
        C[k * nbf + i] -= d * C[k * nbf + j];
      }
    }
    double norm = 0.0;
    for (std::uint64_t k = 0; k < nbf; ++k) {
      norm += C[k * nbf + i] * C[k * nbf + i];
    }
    norm = 1.0 / std::sqrt(norm);
    for (std::uint64_t k = 0; k < nbf; ++k) C[k * nbf + i] *= norm;
  }
  // Orbital energies: occupied negative, virtuals positive.
  std::vector<double> eps(nbf);
  for (std::uint64_t i = 0; i < nbf; ++i) {
    eps[i] = i < nocc ? -1.5 + 0.2 * static_cast<double>(i)
                      : 0.5 + 0.1 * static_cast<double>(i - nocc);
  }

  // Transformed half-integrals per Cholesky vector: Bmo[p,i,a] =
  // sum_{u,v} C[u,i] B[p,u,v] C[v,a]  (i occ, a vir) — two GEMM stages.
  std::vector<double> Bmo(rank * nocc * nvir);
  double emp2 = 0.0;

  const auto rec = assayed(ctx, [&] {
    ctx.parallel_for(
        rank, [&](std::size_t lo, std::size_t hi, unsigned) {
          std::vector<double> half(nocc * nbf);
          std::uint64_t fp = 0, iops = 0;
          for (std::size_t p = lo; p < hi; ++p) {
            const double* Bp = &B[p * nbf * nbf];
            // Stage 1: half[i,v] = sum_u C[u,i] * B[u,v]
            for (std::uint64_t i = 0; i < nocc; ++i) {
              for (std::uint64_t v2 = 0; v2 < nbf; ++v2) {
                double s = 0.0;
                for (std::uint64_t u2 = 0; u2 < nbf; ++u2) {
                  s += C[u2 * nbf + i] * Bp[u2 * nbf + v2];
                }
                half[i * nbf + v2] = s;
                fp += 2 * nbf;
              }
            }
            // Stage 2: Bmo[p,i,a] = sum_v half[i,v] * C[v, nocc+a]
            for (std::uint64_t i = 0; i < nocc; ++i) {
              for (std::uint64_t a2 = 0; a2 < nvir; ++a2) {
                double s = 0.0;
                for (std::uint64_t v2 = 0; v2 < nbf; ++v2) {
                  s += half[i * nbf + v2] * C[v2 * nbf + nocc + a2];
                }
                Bmo[(p * nocc + i) * nvir + a2] = s;
                fp += 2 * nbf;
              }
            }
            iops += nocc * nbf + nocc * nvir;  // loop indexing, lane-level
          }
          counters::add_fp64(fp);
          // Integral-digestion/symmetry index work (Table IV: NTCh INT
          // ~1.4x FP64 on the Phis).
          counters::add_int(iops + fp * 7 / 5);
          counters::add_read_bytes(fp * 8);
          counters::add_write_bytes(fp / 4);
        });

    // MP2 pair energy: E = sum_{ijab} (ia|jb) [2(ia|jb) - (ib|ja)] /
    // (eps_i + eps_j - eps_a - eps_b), with (ia|jb) = sum_p Bmo[p,i,a]
    // Bmo[p,j,b].
    SlotReduce energy(ctx.concurrency());
    ctx.parallel_for(
        nocc * nocc,
        [&](std::size_t lo, std::size_t hi, unsigned tid) {
          std::uint64_t fp = 0;
          double local = 0.0;
          for (std::size_t ij = lo; ij < hi; ++ij) {
            const std::uint64_t i = ij / nocc, j = ij % nocc;
            for (std::uint64_t a2 = 0; a2 < nvir; ++a2) {
              for (std::uint64_t b2 = 0; b2 < nvir; ++b2) {
                double iajb = 0.0, ibja = 0.0;
                for (std::uint64_t p = 0; p < rank; ++p) {
                  iajb += Bmo[(p * nocc + i) * nvir + a2] *
                          Bmo[(p * nocc + j) * nvir + b2];
                  ibja += Bmo[(p * nocc + i) * nvir + b2] *
                          Bmo[(p * nocc + j) * nvir + a2];
                }
                const double denom =
                    eps[i] + eps[j] - eps[nocc + a2] - eps[nocc + b2];
                local += iajb * (2.0 * iajb - ibja) / denom;
                fp += 4 * rank + 7;
              }
            }
          }
          counters::add_fp64(fp);
          counters::add_int(fp / 3);
          counters::add_read_bytes(fp * 4);
          energy.add(tid, local);
        });
    emp2 = energy.sum();
  });

  // Verification 1: MP2 correlation energy must be negative (denominators
  // are negative; the 2J-K numerator for i=j,a=b is positive).
  require(info, emp2 < 0.0, "MP2 correlation energy negative");
  // Verification 2: spot-check the transform against the direct
  // quadruple contraction for a few (p,i,a).
  for (int probe = 0; probe < 3; ++probe) {
    const std::uint64_t p = (probe * 7 + 1) % rank;
    const std::uint64_t i = probe % nocc;
    const std::uint64_t a2 = (probe * 5) % nvir;
    double direct = 0.0;
    for (std::uint64_t u2 = 0; u2 < nbf; ++u2) {
      for (std::uint64_t v2 = 0; v2 < nbf; ++v2) {
        direct += C[u2 * nbf + i] * B[(p * nbf + u2) * nbf + v2] *
                  C[v2 * nbf + nocc + a2];
      }
    }
    require_close(info, Bmo[(p * nocc + i) * nvir + a2], direct, 1e-9,
                  "transform matches direct contraction");
  }

  const double pn = static_cast<double>(kPaperBasis);
  // Anchored on Table IV's 1315.5 Gop FP64 (BDW): the H2O test's basis
  // and integral screening are not derivable from the input.
  const double ops_scale =
      1.3155e12 / std::max(1.0, static_cast<double>(rec.ops().fp64));
  const auto paper_ws = static_cast<std::uint64_t>(
      3.0 * pn * pn * pn * 8.0 + pn * pn * 8.0 * 6);

  memsim::BlockedPattern bp;
  bp.matrix_bytes = paper_ws;
  bp.tile_bytes = 256u << 10;
  bp.tile_reuse = 64.0;  // GEMM-chain blocking over the basis dimension

  KernelTraits traits;
  traits.vec_eff = 0.22;  // calibrated: Table IV achieved rate
                          // FP64 rate of the RIKEN suite)
  traits.int_eff = 0.50;
  traits.phi_vec_penalty = 4.5;   // Table IV: BDW-vs-KNL efficiency ratio
  traits.int_lane_inflation = 2.0;  // SDE lane-granular int counting
  traits.serial_fraction = 0.02;
  traits.latency_dep_fraction = 0.0;

  return finish_measurement(info, rec, ops_scale, paper_ws,
                            memsim::AccessPatternSpec::single(bp), traits,
                            emp2);
}

}  // namespace fpr::kernels
