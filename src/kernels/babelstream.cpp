#include "kernels/babelstream.hpp"

#include <string>

#include "common/aligned_buffer.hpp"
#include "common/units.hpp"

namespace fpr::kernels {

namespace {
constexpr double kScalar = 0.4;  // BabelStream's triad/mul scalar
constexpr int kReps = 8;         // kernel repetitions per run
constexpr std::size_t kRunN = 1u << 21;  // 2M doubles/array at scale 1
}  // namespace

BabelStream::BabelStream(double paper_gib)
    : KernelBase(KernelInfo{
          .name = "BabelStream",
          .abbrev = paper_gib < 10 ? "BABL2" : "BABL14",
          .suite = Suite::reference,
          .domain = Domain::reference,
          .pattern = ComputePattern::stream,
          .language = "C++",
          .paper_input = std::to_string(static_cast<int>(paper_gib)) +
                         " GiB vectors, cache mode",
      }),
      paper_gib_(paper_gib) {}

WorkloadMeasurement BabelStream::run(ExecutionContext& ctx,
                                            const RunConfig& cfg) const {
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
  require_close(a[0], va, 1e-12, "a[0] closed form");
  require_close(a[n - 1], va, 1e-12, "a[n-1] closed form");
  // In the final repetition the dot sums a[i]*b[i] with a already updated
  // by the triad, so the expected value is n * va * vb.
  require_close(dot_result, static_cast<double>(n) * va * vb, 1e-9, "dot");

  // Paper-scale description.
  const double paper_bytes_per_vec = paper_gib_ * static_cast<double>(GiB);
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

  return finish_measurement(info(), rec, ops_scale, paper_ws,
                            memsim::AccessPatternSpec::single(pat), traits,
                            dot_result);
}

}  // namespace fpr::kernels
