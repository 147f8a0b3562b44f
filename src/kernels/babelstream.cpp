// BabelStream (BABL): the paper's memory-subsystem reference benchmark
// (Sec. II-B3c). Copy / Mul / Add / Triad / Dot over three large vectors.
// Two paper configurations: 2 GiB vectors (fit in MCDRAM) and 14 GiB
// vectors (exceed MCDRAM) — Sec. IV-C uses them to establish the
// cache-mode bandwidth ceilings.
#include "common/aligned_buffer.hpp"
#include "common/units.hpp"
#include "kernels/kernel_base.hpp"

namespace fpr::kernels {

namespace {
constexpr double kScalar = 0.4;  // BabelStream's triad/mul scalar
constexpr int kReps = 8;         // kernel repetitions per run
constexpr std::size_t kRunN = 1u << 21;  // 2M doubles/array at scale 1

// One paper configuration: `paper_gib` is the per-vector size (2 or 14).
WorkloadMeasurement run_babelstream(const KernelInfo& info,
                                    ExecutionContext& ctx,
                                    const RunConfig& cfg, double paper_gib) {
  const std::size_t n = scaled_n(kRunN, cfg.scale);
  AlignedBuffer<double> a(n, 0.1), b(n, 0.2), c(n, 0.0);

  double dot_result = 0.0;
  const auto rec = assayed(ctx, [&] {
    for (int rep = 0; rep < kReps; ++rep) {
      // Copy: c = a
      ctx.parallel_for(n, [&](std::size_t lo, std::size_t hi, unsigned) {
        for (std::size_t i = lo; i < hi; ++i) c[i] = a[i];
        counters::add_read_bytes((hi - lo) * 8);
        counters::add_write_bytes((hi - lo) * 8);
        counters::add_int(hi - lo);  // index increments
      });
      // Mul: b = s * c
      ctx.parallel_for(n, [&](std::size_t lo, std::size_t hi, unsigned) {
        for (std::size_t i = lo; i < hi; ++i) b[i] = kScalar * c[i];
        counters::add_fp64(hi - lo);
        counters::add_read_bytes((hi - lo) * 8);
        counters::add_write_bytes((hi - lo) * 8);
        counters::add_int(hi - lo);
      });
      // Add: c = a + b
      ctx.parallel_for(n, [&](std::size_t lo, std::size_t hi, unsigned) {
        for (std::size_t i = lo; i < hi; ++i) c[i] = a[i] + b[i];
        counters::add_fp64(hi - lo);
        counters::add_read_bytes((hi - lo) * 16);
        counters::add_write_bytes((hi - lo) * 8);
        counters::add_int(hi - lo);
      });
      // Triad: a = b + s * c
      ctx.parallel_for(n, [&](std::size_t lo, std::size_t hi, unsigned) {
        for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + kScalar * c[i];
        counters::add_fp64(2 * (hi - lo));
        counters::add_read_bytes((hi - lo) * 16);
        counters::add_write_bytes((hi - lo) * 8);
        counters::add_int(hi - lo);
      });
      // Dot: sum += a * b  (deterministic slot reduction)
      SlotReduce dot(ctx.concurrency());
      ctx.parallel_for(n, [&](std::size_t lo, std::size_t hi, unsigned tid) {
        double local = 0.0;
        for (std::size_t i = lo; i < hi; ++i) local += a[i] * b[i];
        counters::add_fp64(2 * (hi - lo));
        counters::add_read_bytes((hi - lo) * 16);
        counters::add_int(hi - lo);
        dot.add(tid, local);
      });
      dot_result = dot.sum();
    }
  });

  // BabelStream-style verification: after kReps of the cycle the vector
  // values follow a closed form.
  double va = 0.1, vb = 0.2, vc = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    vc = va;
    vb = kScalar * vc;
    vc = va + vb;
    va = vb + kScalar * vc;
  }
  require_close(info, a[0], va, 1e-12, "a[0] closed form");
  require_close(info, a[n - 1], va, 1e-12, "a[n-1] closed form");
  // In the final repetition the dot sums a[i]*b[i] with a already updated
  // by the triad, so the expected value is n * va * vb.
  require_close(info, dot_result, static_cast<double>(n) * va * vb, 1e-9,
                "dot");

  // Paper-scale description.
  const double paper_bytes_per_vec = paper_gib * static_cast<double>(GiB);
  const auto paper_ws = static_cast<std::uint64_t>(3 * paper_bytes_per_vec);
  const double ops_scale =
      paper_bytes_per_vec / (static_cast<double>(n) * 8.0);

  memsim::StreamPattern pat;
  pat.bytes_per_array = static_cast<std::uint64_t>(paper_bytes_per_vec);
  pat.arrays = 3;
  pat.writes_per_iter = 1;

  KernelTraits traits;
  traits.vec_eff = 0.85;   // stream kernels vectorize perfectly but are BW-bound
  traits.int_eff = 0.85;
  traits.serial_fraction = 0.0;
  traits.latency_dep_fraction = 0.0;

  return finish_measurement(info, rec, ops_scale, paper_ws,
                            memsim::AccessPatternSpec::single(pat), traits,
                            dot_result);
}

}  // namespace

WorkloadMeasurement run_babl2(const KernelInfo& info, ExecutionContext& ctx,
                              const RunConfig& cfg) {
  return run_babelstream(info, ctx, cfg, 2.0);
}

WorkloadMeasurement run_babl14(const KernelInfo& info, ExecutionContext& ctx,
                               const RunConfig& cfg) {
  return run_babelstream(info, ctx, cfg, 14.0);
}

}  // namespace fpr::kernels
