#include "capi/homp.h"

#include <functional>
#include <map>
#include <string>

#include "common/error.h"
#include "machine/profiles.h"
#include "pragma/parse.h"
#include "runtime/runtime.h"

namespace homp::capi {

namespace {

thread_local std::string g_last_error;

/// The data environment of the chunk whose body is currently executing.
/// The engine is single-threaded, so one slot suffices; set around the
/// body call in the kernel adapter below.
thread_local const mem::DeviceDataEnv* g_current_env = nullptr;

int fail(int code, const std::string& what) {
  g_last_error = what;
  return code;
}

int guard(const std::function<int()>& fn) {
  try {
    return fn();
  } catch (const ParseError& e) {
    return fail(HOMP_ERR_PARSE, e.what());
  } catch (const ExecutionError& e) {
    return fail(HOMP_ERR_EXEC, e.what());
  } catch (const Error& e) {
    return fail(HOMP_ERR_INVALID, e.what());
  } catch (const std::bad_alloc&) {
    return fail(HOMP_ERR_NOMEM, "out of memory");
  } catch (const std::exception& e) {
    return fail(HOMP_ERR_INVALID, e.what());
  }
}

}  // namespace

struct homp_runtime_opaque {
  rt::Runtime runtime;
  pragma::Bindings bindings;
  /// Keeps registered arrays' shapes; storage stays caller-owned.
  std::map<std::string, std::pair<long long, long long>> shapes;
};

const char* homp_last_error() { return g_last_error.c_str(); }

int homp_init(const char* machine, homp_runtime_t* out) {
  return guard([&] {
    HOMP_REQUIRE(machine != nullptr && out != nullptr,
                 "homp_init: null argument");
    const std::string name(machine);
    bool is_builtin = false;
    for (const auto& b : mach::builtin_machine_names()) {
      if (b == name) is_builtin = true;
    }
    auto rt = is_builtin ? rt::Runtime::from_builtin(name)
                         : rt::Runtime::from_machine_file(name);
    *out = new homp_runtime_opaque{std::move(rt), {}, {}};
    return HOMP_OK;
  });
}

int homp_fini(homp_runtime_t rt) {
  if (rt == nullptr) return fail(HOMP_ERR_INVALID, "homp_fini: null handle");
  delete rt;
  return HOMP_OK;
}

int homp_num_devices(homp_runtime_t rt) {
  if (rt == nullptr) {
    return fail(HOMP_ERR_INVALID, "homp_num_devices: null handle");
  }
  return rt->runtime.num_devices();
}

int homp_register_array(homp_runtime_t rt, const char* name, double* data,
                        long long n0, long long n1) {
  return guard([&] {
    HOMP_REQUIRE(rt != nullptr && name != nullptr && data != nullptr,
                 "homp_register_array: null argument");
    HOMP_REQUIRE(n0 > 0 && n1 >= 0, "homp_register_array: bad extents");
    mem::ArrayBinding b;
    b.base = data;
    b.elem_size = sizeof(double);
    b.shape = n1 > 0 ? std::vector<long long>{n0, n1}
                     : std::vector<long long>{n0};
    b.strides = n1 > 0 ? std::vector<long long>{n1, 1}
                       : std::vector<long long>{1};
    rt->bindings.arrays[name] = std::move(b);
    rt->shapes[name] = {n0, n1};
    return HOMP_OK;
  });
}

int homp_let(homp_runtime_t rt, const char* name, long long value) {
  return guard([&] {
    HOMP_REQUIRE(rt != nullptr && name != nullptr, "homp_let: null argument");
    rt->bindings.let(name, value);
    return HOMP_OK;
  });
}

int homp_offload(homp_runtime_t rt, const char* directive,
                 const homp_kernel_desc* kernel, homp_result* out) {
  return guard([&] {
    HOMP_REQUIRE(rt != nullptr && directive != nullptr && kernel != nullptr,
                 "homp_offload: null argument");
    auto parsed = pragma::parse_directive(directive);
    HOMP_REQUIRE(parsed.kind == pragma::ParsedDirective::Kind::kTarget,
                 "homp_offload expects a target directive");
    auto maps = pragma::build_map_specs(parsed, rt->bindings);
    auto opts = pragma::to_offload_options(parsed, rt->runtime.machine());
    opts.execute_bodies = kernel->execute_bodies != 0;

    rt::LoopKernel k;
    k.name = kernel->name != nullptr ? kernel->name : "anonymous";
    k.iterations = dist::Range::of_size(kernel->iterations);
    k.cost.flops_per_iter = kernel->flops_per_iter;
    k.cost.mem_bytes_per_iter = kernel->mem_bytes_per_iter;
    k.cost.transfer_bytes_per_iter = kernel->transfer_bytes_per_iter;
    k.has_reduction = kernel->has_reduction != 0;
    if (kernel->body != nullptr) {
      auto body = kernel->body;
      auto ctx = kernel->ctx;
      k.body = [body, ctx](const dist::Range& chunk,
                           mem::DeviceDataEnv& env) {
        g_current_env = &env;
        const double partial = body(chunk.lo, chunk.hi, ctx);
        g_current_env = nullptr;
        return partial;
      };
    }

    auto res = rt->runtime.offload(k, maps, opts);
    if (out != nullptr) {
      out->total_time_s = res.total_time;
      out->reduction = res.reduction;
      out->chunks = static_cast<long long>(res.chunks_issued);
      out->imbalance_percent = res.imbalance().percent();
    }
    return HOMP_OK;
  });
}

int homp_view(const char* array_name, homp_view_t* out) {
  return guard([&] {
    HOMP_REQUIRE(array_name != nullptr && out != nullptr,
                 "homp_view: null argument");
    HOMP_REQUIRE(g_current_env != nullptr,
                 "homp_view: no kernel body is executing");
    auto view = g_current_env->view<double>(array_name);
    const dist::Region fp = view.footprint();
    out->base = view.local_data();
    out->lo0 = fp.dim(0).lo;
    out->hi0 = fp.dim(0).hi;
    if (fp.rank() >= 2) {
      out->lo1 = fp.dim(1).lo;
      out->hi1 = fp.dim(1).hi;
      out->stride0 = fp.dim(1).size();
    } else {
      out->lo1 = 0;
      out->hi1 = 0;
      out->stride0 = 1;
    }
    return HOMP_OK;
  });
}

}  // namespace homp::capi
