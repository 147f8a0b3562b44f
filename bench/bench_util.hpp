// Option parsing shared by the engine throughput benches.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "study/study.hpp"

namespace fpr::bench {

inline std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// The value after argv[i] (advancing i); exits 2 if there is none.
inline std::string option_value(int argc, char** argv, int& i) {
  if (i + 1 >= argc) {
    std::cerr << "option " << argv[i] << " needs a value\n";
    std::exit(2);
  }
  return argv[++i];
}

/// An integer option value in [min, max], checked whole and before any
/// narrowing: '-'-prefixed text would otherwise wrap to a huge count in
/// stoull. Anything else exits 2.
inline std::uint64_t parse_count(const std::string& option,
                                 const std::string& text,
                                 std::uint64_t min = 1,
                                 std::uint64_t max = ~std::uint64_t{0}) {
  std::size_t used = 0;
  std::uint64_t v = 0;
  try {
    if (text.find('-') == std::string::npos) v = std::stoull(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != text.size() || v < min || v > max) {
    std::cerr << option << " wants an integer >= " << min;
    if (max != ~std::uint64_t{0}) std::cerr << " and <= " << max;
    std::cerr << ", got '" << text << "'\n";
    std::exit(2);
  }
  return v;
}

/// Parse a "1,2,4,8" job-count ladder: each entry in 1..4096, since
/// absurd counts would try to spawn that many threads. Exits 2 on
/// invalid input.
inline std::vector<unsigned> parse_ladder(const std::string& option,
                                          const std::string& s) {
  std::vector<unsigned> out;
  for (const auto& j : split_csv(s)) {
    out.push_back(static_cast<unsigned>(parse_count(option, j, 1, 4096)));
  }
  return out;
}

/// The measurement options every engine bench takes (--kernels A,B,
/// --scale S, --trace-refs N) with the fpr CLI's checks: a non-empty
/// kernel list, a finite scale > 0 and a count > 0. Parses argv[i]'s
/// value into `cfg` and returns true, or returns false when argv[i] is
/// none of them. A bad value exits 2.
inline bool parse_measure_option(int argc, char** argv, int& i,
                                 study::MeasureConfig& cfg) {
  const std::string arg = argv[i];
  if (arg == "--kernels") {
    cfg.kernels = split_csv(option_value(argc, argv, i));
    if (cfg.kernels.empty()) {
      std::cerr << "--kernels needs at least one kernel\n";
      std::exit(2);
    }
  } else if (arg == "--scale") {
    const std::string text = option_value(argc, argv, i);
    std::size_t used = 0;
    try {
      cfg.scale = std::stod(text, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used == 0 || used != text.size() || !std::isfinite(cfg.scale) ||
        cfg.scale <= 0.0) {
      std::cerr << "--scale must be finite and > 0, got '" << text << "'\n";
      std::exit(2);
    }
  } else if (arg == "--trace-refs") {
    cfg.trace_refs = parse_count(arg, option_value(argc, argv, i));
  } else {
    return false;
  }
  return true;
}

}  // namespace fpr::bench
