// Motion estimation (2-D block matching) across CPU + GPUs + MICs with
// CUTOFF device selection — the paper's compute-intensive,
// neighbourhood-communication workload (bm2d in Table IV / Table V).
//
// Shows: per-policy timing comparison, CUTOFF's device choices, and the
// estimated motion field of a synthetic shifted frame.
//
// Build & run:   ./examples/block_matching [frame_edge]

#include <cstdio>
#include <exception>
#include <map>
#include <string>

#include "common/strings.h"
#include "common/table.h"
#include "kernels/bm2d.h"
#include "runtime/runtime.h"

namespace {

int run(int argc, char** argv) {
  using namespace homp;
  const long long edge = argc > 1 ? parse_scaled_int(argv[1]) : 128;
  auto rt = rt::Runtime::from_builtin("full");
  kern::Bm2dCase c(edge, /*materialize=*/true);
  std::printf("block matching: %lldx%lld frame, %lldx%lld blocks of 16px, "
              "search +-8px\n",
              edge, edge, edge / 16, edge / 16);

  TextTable table({"policy", "time", "devices used", "verified"});
  const sched::AlgorithmKind policies[] = {
      sched::AlgorithmKind::kBlock,
      sched::AlgorithmKind::kDynamic,
      sched::AlgorithmKind::kModel1Auto,
      sched::AlgorithmKind::kSchedProfileAuto,
  };
  for (auto kind : policies) {
    c.init();
    rt::OffloadOptions o;
    o.device_ids = rt.all_devices();
    o.sched.kind = kind;
    o.sched.cutoff_ratio =
        sched::algorithm_info(kind).supports_cutoff ? 0.15 : 0.0;
    auto maps = c.maps();
    auto kernel = c.kernel();
    auto res = rt.offload(kernel, maps, o);

    int used = 0;
    for (const auto& d : res.devices) {
      if (d.iterations > 0) ++used;
    }
    std::string why;
    const bool ok = c.verify(&why);
    table.row()
        .cell(to_string(kind))
        .cell(format_seconds(res.total_time))
        .cell(static_cast<long long>(used))
        .cell(ok ? "yes" : why);
    if (res.has_cutoff && res.cutoff.num_selected < rt.num_devices()) {
      std::printf("  %s CUTOFF kept:", to_string(kind));
      for (std::size_t i = 0; i < res.devices.size(); ++i) {
        if (res.cutoff.selected[i]) {
          std::printf(" %s", res.devices[i].device_name.c_str());
        }
      }
      std::printf("\n");
    }
  }
  std::printf("\n");
  std::puts(table.to_string().c_str());

  // Motion-vector histogram from the last run: the synthetic reference
  // frame is the current frame shifted, so one displacement dominates.
  c.init();
  {
    rt::OffloadOptions o;
    o.device_ids = rt.all_devices();
    o.sched.kind = sched::AlgorithmKind::kBlock;
    auto maps = c.maps();
    auto kernel = c.kernel();
    rt.offload(kernel, maps, o);
  }
  std::map<std::pair<long long, long long>, int> histogram;
  for (long long bi = 0; bi < c.blocks_per_side(); ++bi) {
    for (long long bj = 0; bj < c.blocks_per_side(); ++bj) {
      ++histogram[c.motion_vector(bi, bj)];
    }
  }
  std::printf("top motion vectors (dy, dx):\n");
  int printed = 0;
  while (printed < 3 && !histogram.empty()) {
    auto best = histogram.begin();
    for (auto it = histogram.begin(); it != histogram.end(); ++it) {
      if (it->second > best->second) best = it;
    }
    std::printf("  (%+lld, %+lld): %d blocks\n", best->first.first,
                best->first.second, best->second);
    histogram.erase(best);
    ++printed;
  }
  std::string why;
  std::printf("%s\n", c.verify(&why)
                          ? "motion field verified against sequential search"
                          : why.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "block_matching: %s\n", e.what());
    return 2;
  }
}
