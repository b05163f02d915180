/// \file homp_fuzz_main.cpp
/// The homp-fuzz command-line driver (docs/FUZZING.md).
///
///   homp-fuzz --seed N --count M [--max-devices K] [--repro-dir DIR]
///             [--summary-out FILE] [--no-shrink] [--plant corrupt-commit]
///   homp-fuzz --serve --seed N --count M [--max-tenants T] [--max-jobs J]
///             [--repro-dir DIR] [--summary-out FILE] [--no-shrink]
///   homp-fuzz --replay FILE.toml
///
/// --replay sniffs the repro file: a [serve] section replays through the
/// serve-mode oracle, anything else through the single-offload
/// differential oracle.
///
/// Exit codes, corpus mode:   0 = no invariant violations,
///                            1 = violations found (repros written),
///                            2 = unusable configuration.
/// Exit codes, replay mode:   0 = the recorded violation reproduced,
///                            1 = it did NOT reproduce,
///                            2 = unreadable/malformed repro file.

#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>

#include "common/error.h"
#include "fuzz/serve_driver.h"

namespace {

void usage(std::ostream& os) {
  os << "usage: homp-fuzz --seed N --count M [options]\n"
        "       homp-fuzz --serve --seed N --count M [options]\n"
        "       homp-fuzz --replay FILE.toml\n"
        "\n"
        "corpus options:\n"
        "  --seed N           first scenario seed (default 1)\n"
        "  --count M          scenarios to run (default 100)\n"
        "  --max-devices K    device cap incl. host (default 6; serve: 5)\n"
        "  --repro-dir DIR    where repro files go (default machines/fuzz)\n"
        "  --summary-out F    also write the summary JSON to F\n"
        "  --no-shrink        emit failing scenarios unminimized\n"
        "  --plant corrupt-commit\n"
        "                     plant the acceptance-test violation into\n"
        "                     every scenario (integrity off + scripted\n"
        "                     silent compute corruption; not a serve-mode\n"
        "                     option)\n"
        "\n"
        "serve mode (--serve): multi-tenant server scenarios checked\n"
        "against the serve-invariant catalog (fault containment, breaker,\n"
        "timer lifecycle, determinism); these options need --serve:\n"
        "  --max-tenants T    tenant roster cap (default 4)\n"
        "  --max-jobs J       timed submissions per scenario (default 14)\n"
        "  --no-faults        admission/scheduling space only\n";
}

long long parse_ll(const std::string& flag, const char* value) {
  try {
    std::size_t used = 0;
    const long long v = std::stoll(value, &used);
    if (used == std::string(value).size()) return v;
  } catch (...) {
  }
  throw homp::ConfigError(flag + " needs an integer, got '" +
                          std::string(value) + "'");
}

int parse_int(const std::string& flag, const char* value) {
  const long long v = parse_ll(flag, value);
  if (v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    throw homp::ConfigError(flag + " is out of range: " + std::string(value));
  }
  return static_cast<int>(v);
}

/// Replay a repro of either mode and print what its oracle reported.
int run_replay(const std::string& path) {
  const auto outcome = homp::fuzz::replay(path);
  std::cout << "replay: " << path << (outcome.serve ? " (serve)" : "")
            << "\n";
  std::cout << "recorded: " << outcome.recorded_invariant;
  if (!outcome.recorded_algorithm.empty()) {
    std::cout << " (" << outcome.recorded_algorithm << ")";
  }
  std::cout << "\n";
  for (const auto& v : outcome.violations) {
    std::cout << "violation: " << v.invariant;
    if (!outcome.serve) std::cout << " [" << v.algorithm << "]";
    std::cout << " " << v.detail << "\n";
  }
  if (outcome.reproduced) {
    std::cout << "REPRODUCED: invariant '" << outcome.recorded_invariant
              << "' failed again\n";
    return 0;
  }
  std::cout << "NOT REPRODUCED: invariant '" << outcome.recorded_invariant
            << "' held this time\n";
  return 1;
}

/// Print a corpus summary (and copy it to `summary_out`), then map it to
/// the corpus exit code. `totals` is the mode's one-line tally.
template <class Summary>
int report(const Summary& summary, const std::string& summary_out,
           const std::string& totals) {
  if (!summary_out.empty()) {
    std::ofstream out(summary_out, std::ios::binary);
    if (!out.good()) {
      std::cerr << "homp-fuzz: cannot write " << summary_out << "\n";
      return 2;
    }
    out << summary.json;
  }
  std::cout << summary.json;
  std::cerr << "homp-fuzz: " << totals << ", " << summary.violations
            << " violations\n";
  for (const auto& f : summary.failures) {
    std::cerr << "  seed " << f.seed << ": " << f.invariant;
    if constexpr (requires { f.algorithm; }) {
      std::cerr << " [" << f.algorithm << "]";
    }
    std::cerr << (f.repro_toml.empty() ? "" : " -> " + f.repro_toml) << "\n";
  }
  return summary.violations == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using homp::fuzz::CorpusConfig;
  CorpusConfig corpus;  // the flags both modes share
  homp::fuzz::FuzzConfig cfg;
  homp::fuzz::ServeFuzzConfig serve_cfg;
  std::optional<int> max_devices;
  bool serve = false;
  std::string serve_only;  // the last serve-mode-only flag given
  std::string summary_out;
  std::string replay_path;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> const char* {
        if (i + 1 >= argc) {
          throw homp::ConfigError(arg + " needs a value");
        }
        return argv[++i];
      };
      if (arg == "--help" || arg == "-h") {
        usage(std::cout);
        return 0;
      } else if (arg == "--serve") {
        serve = true;
      } else if (arg == "--seed") {
        corpus.seed = static_cast<std::uint64_t>(parse_ll(arg, value()));
      } else if (arg == "--count") {
        corpus.count = parse_int(arg, value());
      } else if (arg == "--max-devices") {
        max_devices = parse_int(arg, value());
      } else if (arg == "--max-tenants") {
        serve_cfg.limits.max_tenants = parse_int(arg, value());
        serve_only = arg;
      } else if (arg == "--max-jobs") {
        serve_cfg.limits.max_jobs = parse_int(arg, value());
        serve_only = arg;
      } else if (arg == "--no-faults") {
        serve_cfg.limits.allow_faults = false;
        serve_only = arg;
      } else if (arg == "--repro-dir") {
        corpus.repro_dir = value();
      } else if (arg == "--summary-out") {
        summary_out = value();
      } else if (arg == "--no-shrink") {
        corpus.shrink_failures = false;
      } else if (arg == "--plant") {
        const std::string what = value();
        if (what != "corrupt-commit") {
          throw homp::ConfigError("unknown --plant mode '" + what +
                                  "' (only corrupt-commit)");
        }
        cfg.plant = true;
      } else if (arg == "--replay") {
        replay_path = value();
      } else {
        throw homp::ConfigError("unknown argument '" + arg + "'");
      }
    }

    if (!replay_path.empty()) {
      return run_replay(replay_path);
    }

    if (serve) {
      if (cfg.plant) {
        throw homp::ConfigError("--plant is not a serve-mode option");
      }
      static_cast<CorpusConfig&>(serve_cfg) = corpus;
      if (max_devices) serve_cfg.limits.max_devices = *max_devices;
      const auto s = homp::fuzz::run_serve_fuzz(serve_cfg);
      return report(s, summary_out,
                    std::to_string(s.scenarios) + " serve scenarios, " +
                        std::to_string(s.jobs) + " jobs (" +
                        std::to_string(s.completed) + " completed, " +
                        std::to_string(s.failed) + " failed, " +
                        std::to_string(s.cancelled) + " cancelled)");
    }

    if (!serve_only.empty()) {
      throw homp::ConfigError(serve_only + " is a serve-mode option");
    }
    static_cast<CorpusConfig&>(cfg) = corpus;
    if (max_devices) cfg.limits.max_devices = *max_devices;
    const auto s = homp::fuzz::run_fuzz(cfg);
    return report(s, summary_out,
                  std::to_string(s.scenarios) + " scenarios, " +
                      std::to_string(s.offloads) + " offloads");
  } catch (const std::exception& e) {
    std::cerr << "homp-fuzz: " << e.what() << "\n";
    return 2;
  }
}
