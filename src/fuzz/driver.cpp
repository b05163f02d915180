#include "fuzz/driver.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/error.h"
#include "common/json.h"
#include "common/strings.h"
#include "fuzz/serve_driver.h"
#include "fuzz/shrink.h"
#include "machine/parser.h"

namespace homp::fuzz {

namespace {

// What the pipeline below needs from each mode: its generator, its repro
// writer and parser, and the fields its summary reports. The scenario
// type picks its oracle (the run_oracle overloads) and its edit passes
// (shrink.cpp).

/// Single-offload scenarios through the differential oracle.
struct OffloadMode {
  using Config = FuzzConfig;
  using Summary = FuzzSummary;
  using Failure = FailureRecord;
  static constexpr const char* kCorpus = "fuzz corpus";
  static constexpr const char* kStem = "repro-";

  static ScenarioSpec generate(std::uint64_t seed, const FuzzConfig& cfg) {
    ScenarioSpec s = generate_scenario(seed, cfg.limits);
    if (cfg.plant) plant_corrupt_commit(s);
    return s;
  }
  static constexpr auto parse = &parse_scenario;
  static constexpr auto to_toml = &fuzz::to_toml;
  static constexpr auto invariants = &invariant_names;

  static void write_config(std::ostream& os, const FuzzConfig& cfg) {
    os << "{\"seed\": " << cfg.seed << ", \"count\": " << cfg.count
       << ", \"max_devices\": " << cfg.limits.max_devices
       << ", \"plant\": " << (cfg.plant ? "true" : "false") << "}";
  }
  /// Count one scenario into the totals and write its run-row fields.
  static void tally(FuzzSummary& sum, const ScenarioSpec& s,
                    const OracleReport& r, std::ostream& row) {
    sum.offloads += static_cast<int>(r.runs.size());
    row << ", \"kernel\": " << json_quote(s.kernel) << ", \"n\": " << s.n
        << ", \"devices\": " << s.machine.devices.size()
        << ", \"faults\": " << s.faults.size();
  }
  static void write_totals(std::ostream& os, const FuzzSummary& sum) {
    os << "  \"offloads\": " << sum.offloads << ",\n";
  }
  /// Fill the mode's fields of a failure from its recorded violation and
  /// the minimized scenario.
  static void record(FailureRecord& f, const Violation& v,
                     const ScenarioSpec& minimal) {
    f.algorithm = v.algorithm;
    f.shrunk_devices = static_cast<int>(minimal.machine.devices.size());
    f.shrunk_n = minimal.n;
    f.shrunk_faults = static_cast<int>(minimal.faults.size());
  }
  static void write_failure(std::ostream& os, const FailureRecord& f) {
    os << "{\"seed\": " << f.seed
       << ", \"invariant\": " << json_quote(f.invariant)
       << ", \"algorithm\": " << json_quote(f.algorithm)
       << ", \"detail\": " << json_quote(f.detail)
       << ", \"repro\": " << json_quote(f.repro_toml)
       << ", \"shrunk_devices\": " << f.shrunk_devices
       << ", \"shrunk_n\": " << f.shrunk_n
       << ", \"shrunk_faults\": " << f.shrunk_faults << "}";
  }
};

/// Multi-tenant serve scenarios through the serve-invariant oracle.
struct ServeMode {
  using Config = ServeFuzzConfig;
  using Summary = ServeFuzzSummary;
  using Failure = ServeFailureRecord;
  static constexpr const char* kCorpus = "serve fuzz corpus";
  static constexpr const char* kStem = "serve-repro-";

  static ServeScenarioSpec generate(std::uint64_t seed,
                                    const ServeFuzzConfig& cfg) {
    return generate_serve_scenario(seed, cfg.limits);
  }
  static constexpr auto parse = &parse_serve_scenario;
  static constexpr auto invariants = &serve_invariant_names;
  static std::string to_toml(const ServeScenarioSpec& s,
                             const std::string& ini,
                             const std::string& invariant,
                             const std::string& /*algorithm*/) {
    return serve_to_toml(s, ini, invariant);
  }

  static void write_config(std::ostream& os, const ServeFuzzConfig& cfg) {
    os << "{\"mode\": \"serve\", \"seed\": " << cfg.seed
       << ", \"count\": " << cfg.count
       << ", \"max_devices\": " << cfg.limits.max_devices
       << ", \"max_tenants\": " << cfg.limits.max_tenants
       << ", \"max_jobs\": " << cfg.limits.max_jobs << "}";
  }
  static void tally(ServeFuzzSummary& sum, const ServeScenarioSpec& s,
                    const ServeOracleReport& r, std::ostream& row) {
    sum.jobs += static_cast<int>(s.jobs.size());
    sum.completed += r.completed;
    sum.failed += r.failed;
    sum.cancelled += r.cancelled;
    sum.rejected += r.rejected;
    sum.breaker_trips += r.breaker_trips;
    row << ", \"tenants\": " << s.tenants.size()
        << ", \"jobs\": " << s.jobs.size()
        << ", \"completed\": " << r.completed
        << ", \"failed\": " << r.failed
        << ", \"cancelled\": " << r.cancelled
        << ", \"rejected\": " << r.rejected
        << ", \"breaker_trips\": " << r.breaker_trips;
  }
  static void write_totals(std::ostream& os, const ServeFuzzSummary& sum) {
    os << "  \"jobs\": " << sum.jobs << ",\n"
       << "  \"completed\": " << sum.completed << ",\n"
       << "  \"failed\": " << sum.failed << ",\n"
       << "  \"cancelled\": " << sum.cancelled << ",\n"
       << "  \"rejected\": " << sum.rejected << ",\n"
       << "  \"breaker_trips\": " << sum.breaker_trips << ",\n";
  }
  static void record(ServeFailureRecord& f, const Violation& /*v*/,
                     const ServeScenarioSpec& minimal) {
    f.shrunk_tenants = static_cast<int>(minimal.tenants.size());
    f.shrunk_jobs = static_cast<int>(minimal.jobs.size());
    f.shrunk_faulty_tenants = static_cast<int>(std::count_if(
        minimal.tenants.begin(), minimal.tenants.end(),
        [](const serve::TenantSpec& t) { return t.fault.any(); }));
  }
  static void write_failure(std::ostream& os, const ServeFailureRecord& f) {
    os << "{\"seed\": " << f.seed
       << ", \"invariant\": " << json_quote(f.invariant)
       << ", \"detail\": " << json_quote(f.detail)
       << ", \"repro\": " << json_quote(f.repro_toml)
       << ", \"shrunk_tenants\": " << f.shrunk_tenants
       << ", \"shrunk_jobs\": " << f.shrunk_jobs
       << ", \"shrunk_faulty_tenants\": " << f.shrunk_faulty_tenants << "}";
  }
};

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  HOMP_REQUIRE(out.good(), "cannot write repro file: " + path);
  out << content;
  HOMP_REQUIRE(out.good(), "short write to repro file: " + path);
}

/// The corpus loop: generate scenario seed+i, judge it and add its
/// summary row; on a failure, shrink it, re-run the minimum and write
/// the repro pair; finally render the deterministic summary document.
template <class Mode>
typename Mode::Summary run_corpus(const typename Mode::Config& cfg) {
  HOMP_REQUIRE(cfg.count >= 1,
               std::string(Mode::kCorpus) + " needs count >= 1");
  typename Mode::Summary summary;
  std::ostringstream runs;

  for (int i = 0; i < cfg.count; ++i) {
    const std::uint64_t seed = cfg.seed + static_cast<std::uint64_t>(i);
    const auto s = Mode::generate(seed, cfg);
    const auto report = run_oracle(s);
    ++summary.scenarios;
    summary.violations += static_cast<int>(report.violations.size());

    if (summary.scenarios > 1) runs << ",\n";
    runs << "    {\"seed\": " << seed;
    Mode::tally(summary, s, report, runs);
    runs << ", \"violations\": " << report.violations.size()
         << ", \"digest\": " << json_quote(hex64(report.digest())) << "}";

    if (report.violations.empty()) continue;

    // --- failing scenario: shrink, then emit a self-contained repro ---
    const Violation& primary = report.violations.front();
    const auto minimal =
        cfg.shrink_failures
            ? shrink(s, primary.invariant, cfg.shrink_budget).scenario
            : s;
    // The minimized scenario's own report names the algorithm/detail to
    // record (shrinking may have moved the failure between algorithms).
    const auto min_report = run_oracle(minimal);
    const Violation* found =
        find_violation(min_report.violations, primary.invariant);
    const Violation& rec = found != nullptr ? *found : primary;

    typename Mode::Failure fr;
    fr.seed = seed;
    fr.invariant = primary.invariant;
    fr.detail = rec.detail;
    Mode::record(fr, rec, minimal);

    if (static_cast<int>(summary.failures.size()) < cfg.max_repros) {
      std::error_code ec;
      std::filesystem::create_directories(cfg.repro_dir, ec);
      HOMP_REQUIRE(!ec, "cannot create repro directory: " + cfg.repro_dir);
      const std::string stem = Mode::kStem + std::to_string(seed);
      const std::string ini_name = stem + ".ini";
      const std::string toml_path = cfg.repro_dir + "/" + stem + ".toml";
      write_file(cfg.repro_dir + "/" + ini_name,
                 mach::to_text(minimal.machine));
      write_file(toml_path, Mode::to_toml(minimal, ini_name, primary.invariant,
                                          rec.algorithm));
      fr.repro_toml = toml_path;
    }
    summary.failures.push_back(std::move(fr));
  }

  // --- deterministic summary document ---
  std::ostringstream os;
  os << "{\n";
  os << "  \"config\": ";
  Mode::write_config(os, cfg);
  os << ",\n";
  os << "  \"invariants\": [";
  const auto& names = Mode::invariants();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i) os << ", ";
    os << json_quote(names[i]);
  }
  os << "],\n";
  os << "  \"scenarios\": " << summary.scenarios << ",\n";
  Mode::write_totals(os, summary);
  os << "  \"violations\": " << summary.violations << ",\n";
  os << "  \"runs\": [\n" << runs.str() << "\n  ],\n";
  os << "  \"failures\": [";
  for (std::size_t i = 0; i < summary.failures.size(); ++i) {
    os << (i ? ",\n    " : "\n    ");
    Mode::write_failure(os, summary.failures[i]);
  }
  os << (summary.failures.empty() ? "]\n" : "\n  ]\n");
  os << "}\n";
  summary.json = os.str();
  return summary;
}

template <class Mode>
ReplayOutcome replay_as(const std::string& toml_path,
                        const std::string& text) {
  auto parsed = Mode::parse(text);
  HOMP_REQUIRE(!parsed.machine_file.empty(),
               "repro file records no machine_file: " + toml_path);
  HOMP_REQUIRE(!parsed.invariant.empty(),
               "repro file records no failing invariant: " + toml_path);

  // The paired .ini lives next to the .toml.
  std::filesystem::path machine_path(parsed.machine_file);
  if (machine_path.is_relative()) {
    machine_path =
        std::filesystem::path(toml_path).parent_path() / machine_path;
  }
  parsed.scenario.machine = mach::load_machine_file(machine_path.string());

  ReplayOutcome out;
  out.recorded_invariant = parsed.invariant;
  out.recorded_algorithm = parsed.algorithm;
  out.violations = run_oracle(parsed.scenario).violations;
  out.reproduced = find_violation(out.violations, parsed.invariant) != nullptr;
  return out;
}

}  // namespace

FuzzSummary run_fuzz(const FuzzConfig& cfg) {
  return run_corpus<OffloadMode>(cfg);
}

ServeFuzzSummary run_serve_fuzz(const ServeFuzzConfig& cfg) {
  return run_corpus<ServeMode>(cfg);
}

ReplayOutcome replay(const std::string& toml_path) {
  const std::string text = read_file(toml_path, "repro file");
  if (!is_serve_scenario(text)) return replay_as<OffloadMode>(toml_path, text);
  ReplayOutcome out = replay_as<ServeMode>(toml_path, text);
  out.serve = true;
  return out;
}

}  // namespace homp::fuzz
