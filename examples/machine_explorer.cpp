// Machine-description explorer: loads a machine file (writing a sample
// next to itself on first run), prints its topology, and shows what the
// analytical models (MODEL_1 / MODEL_2) would predict for each Table IV
// kernel — the planner's view before any offload runs.
//
// Build & run:   ./examples/machine_explorer [machine.ini]

#include <cstdio>
#include <exception>
#include <fstream>
#include <string>

#include "common/table.h"
#include "kernels/case.h"
#include "machine/parser.h"
#include "machine/profiles.h"
#include "model/heuristic.h"
#include "model/loop_model.h"
#include "sched/selector.h"

namespace {

int run(int argc, char** argv) {
  using namespace homp;

  mach::MachineDescriptor machine;
  if (argc > 1) {
    machine = mach::load_machine_file(argv[1]);
    std::printf("loaded machine description from %s\n", argv[1]);
  } else {
    machine = mach::builtin("full");
    const char* path = "homp_machine_sample.ini";
    std::ofstream out(path);
    out << mach::to_text(machine);
    std::printf("no file given: using builtin 'full' (sample written to "
                "%s; edit and re-run with it)\n",
                path);
  }

  std::printf("\nmachine '%s'\n", machine.name.c_str());
  {
    TextTable t({"device", "type", "memory", "link", "peak GF",
                 "sustained GF", "membw GB/s", "launch us"});
    for (const auto& d : machine.devices) {
      t.row()
          .cell(d.name)
          .cell(mach::to_string(d.type))
          .cell(mach::to_string(d.memory))
          .cell(d.link == mach::kNoLink ? std::string("-")
                                        : machine.links[d.link].name)
          .cell(d.peak_gflops, 0)
          .cell(d.sustained_gflops, 0)
          .cell(d.peak_membw_GBps, 0)
          .cell(d.launch_overhead_s * 1e6, 1);
    }
    std::puts(t.to_string().c_str());
  }
  {
    TextTable t({"link", "latency us", "bandwidth GB/s"});
    for (const auto& l : machine.links) {
      t.row().cell(l.name).cell(l.latency_s * 1e6, 1).cell(
          l.bandwidth_Bps * 1e-9, 1);
    }
    std::puts(t.to_string().c_str());
  }

  // Model predictions per kernel: weights the planner would assign.
  std::vector<int> all(machine.devices.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
  auto inputs = model::prediction_inputs(machine, all);

  for (const auto& name : kern::all_kernel_names()) {
    auto c = kern::make_case(name, kern::paper_size(name), false);
    const auto cost = c->kernel().cost;
    std::printf("kernel %-10s (n=%lld): class=%s, heuristic picks %s\n",
                name.c_str(), c->problem_size(),
                to_string(model::classify(cost)),
                to_string(sched::select_algorithm(cost, inputs)));
    TextTable t({"device", "MODEL_1 weight", "MODEL_2 weight"});
    auto w1 = model::model1_weights(cost, inputs);
    auto w2 = model::model2_weights(cost, inputs);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      t.row()
          .cell(machine.devices[i].name)
          .cell(w1[i] * 100.0, 1)
          .cell(w2[i] * 100.0, 1);
    }
    std::puts(t.to_string().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "machine_explorer: %s\n", e.what());
    return 2;
  }
}
