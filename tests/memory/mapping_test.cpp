// DeviceMapping: real subregion copies, footprint bookkeeping, views.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.h"
#include "memory/data_env.h"
#include "memory/device_mapping.h"
#include "memory/host_array.h"

namespace homp::mem {
namespace {

MapSpec spec_1d(HostArray<double>& a, MapDirection dir) {
  MapSpec s;
  s.name = "a";
  s.dir = dir;
  s.binding = bind_array(a);
  s.region = a.region();
  s.partition = {dist::DimPolicy::align("loop")};
  return s;
}

TEST(DeviceMapping, CopyInOutRoundTrips1D) {
  auto a = HostArray<double>::vector(10);
  a.fill_with_index([](long long i) { return static_cast<double>(i); });
  auto s = spec_1d(a, MapDirection::kToFrom);

  dist::Region owned({dist::Range(3, 7)});
  DeviceMapping m(s, owned, owned, /*shared=*/false, /*materialize=*/true);
  m.copy_in();
  auto v = m.view<double>();
  EXPECT_EQ(v(3), 3.0);
  EXPECT_EQ(v(6), 6.0);
  v(4) = 44.0;
  m.copy_out();
  EXPECT_EQ(a(4), 44.0);
  EXPECT_EQ(a(2), 2.0);  // outside owned: untouched
  EXPECT_EQ(a(7), 7.0);
}

TEST(DeviceMapping, HaloFootprintCopiedButNotWrittenBack) {
  auto a = HostArray<double>::vector(10);
  a.fill_with_index([](long long i) { return static_cast<double>(i); });
  auto s = spec_1d(a, MapDirection::kToFrom);
  s.halo_before = 1;
  s.halo_after = 1;

  dist::Region owned({dist::Range(4, 6)});
  dist::Region fp({dist::Range(3, 7)});
  DeviceMapping m(s, owned, fp, false, true);
  m.copy_in();
  auto v = m.view<double>();
  EXPECT_EQ(v(3), 3.0);  // halo readable
  v(3) = -1.0;           // scribble on halo
  v(5) = 55.0;
  m.copy_out();
  EXPECT_EQ(a(3), 3.0);  // halo NOT written back
  EXPECT_EQ(a(5), 55.0);
  EXPECT_EQ(m.bytes_in(), 4 * 8.0);   // footprint
  EXPECT_EQ(m.bytes_out(), 2 * 8.0);  // owned only
}

TEST(DeviceMapping, TwoDimensionalRowSlices) {
  auto a = HostArray<double>::matrix(6, 4);
  a.fill_with_indices([](long long i, long long j) {
    return static_cast<double>(i * 10 + j);
  });
  MapSpec s;
  s.name = "m";
  s.dir = MapDirection::kToFrom;
  s.binding = bind_array(a);
  s.region = a.region();
  s.partition = {dist::DimPolicy::align("loop"), dist::DimPolicy::full()};

  dist::Region owned({dist::Range(2, 4), dist::Range(0, 4)});
  DeviceMapping m(s, owned, owned, false, true);
  m.copy_in();
  auto v = m.view<double>();
  EXPECT_EQ(v(2, 0), 20.0);
  EXPECT_EQ(v(3, 3), 33.0);
  v(2, 1) = 99.0;
  m.copy_out();
  EXPECT_EQ(a(2, 1), 99.0);
  EXPECT_EQ(a(1, 1), 11.0);
  EXPECT_EQ(a(4, 1), 41.0);
}

TEST(DeviceMapping, SharedAliasesHostStorage) {
  auto a = HostArray<double>::vector(8, 1.0);
  auto s = spec_1d(a, MapDirection::kToFrom);
  dist::Region owned({dist::Range(0, 8)});
  DeviceMapping m(s, owned, owned, /*shared=*/true, true);
  EXPECT_EQ(m.bytes_in(), 0.0);
  EXPECT_EQ(m.bytes_out(), 0.0);
  auto v = m.view<double>();
  v(5) = 7.0;
  EXPECT_EQ(a(5), 7.0);  // no copy needed
}

TEST(DeviceMapping, DirectionsGateTransfers) {
  auto a = HostArray<double>::vector(4, 2.0);
  dist::Region whole({dist::Range(0, 4)});
  {
    auto s = spec_1d(a, MapDirection::kTo);
    DeviceMapping m(s, whole, whole, false, true);
    EXPECT_GT(m.bytes_in(), 0.0);
    EXPECT_EQ(m.bytes_out(), 0.0);
  }
  {
    auto s = spec_1d(a, MapDirection::kFrom);
    DeviceMapping m(s, whole, whole, false, true);
    EXPECT_EQ(m.bytes_in(), 0.0);
    EXPECT_GT(m.bytes_out(), 0.0);
    m.copy_in();  // no-op
    auto v = m.view<double>();
    // Storage is zero-initialized, not copied from host.
    for (long long i = 0; i < 4; ++i) EXPECT_EQ(v(i), 0.0) << "element " << i;
  }
  {
    auto s = spec_1d(a, MapDirection::kAlloc);
    DeviceMapping m(s, whole, whole, false, true);
    EXPECT_EQ(m.bytes_in(), 0.0);
    EXPECT_EQ(m.bytes_out(), 0.0);
    auto v = m.view<double>();
    for (long long i = 0; i < 4; ++i) EXPECT_EQ(v(i), 0.0) << "element " << i;
  }
}

TEST(DeviceMapping, DeviceAndHostChecksumsAgreeUntilCorrupted) {
  // Rows [3:6) owned plus one halo row each side, columns [1:6) of a 10x7
  // matrix: five 40-byte runs, strided on the host and packed on the
  // device, so 64-byte checksum blocks straddle the runs on both sides.
  auto a = HostArray<double>::matrix(10, 7);
  a.fill_with_indices([](long long i, long long j) {
    return static_cast<double>(i * 10 + j) + 0.5;
  });
  MapSpec s;
  s.name = "m";
  s.dir = MapDirection::kToFrom;
  s.binding = bind_array(a);
  s.region = a.region();
  s.partition = {dist::DimPolicy::align("loop"), dist::DimPolicy::full()};
  s.halo_before = 1;
  s.halo_after = 1;
  const dist::Region owned({dist::Range(3, 6), dist::Range(1, 6)});
  const dist::Region fp({dist::Range(2, 7), dist::Range(1, 6)});
  DeviceMapping m(s, owned, fp, false, true);
  m.copy_in();
  EXPECT_EQ(m.checksum_device(fp), m.checksum_host(fp));
  EXPECT_EQ(m.checksum_device(owned), m.checksum_host(owned));

  m.corrupt_device(fp, /*seed=*/7);
  EXPECT_NE(m.checksum_device(fp), m.checksum_host(fp));
}

// Message of the ExecutionError raised by `access`, or "" if none.
template <typename F>
std::string access_error(F&& access) {
  try {
    access();
  } catch (const ExecutionError& e) {
    return e.what();
  }
  return "";
}

TEST(DeviceMapping, ViewOutsideFootprintThrows) {
  auto a = HostArray<double>::vector(10, 0.0);
  auto s = spec_1d(a, MapDirection::kTo);
  dist::Region owned({dist::Range(2, 5)});
  DeviceMapping m(s, owned, owned, false, true);
  auto v = m.view<double>();
  EXPECT_THROW(v(1), ExecutionError);
  EXPECT_THROW(v(5), ExecutionError);
  EXPECT_NO_THROW(v(4));

  // Rank-2 and rank-3 footprints that start away from 0: in every
  // dimension, lo - 1 and hi are rejected with a message naming that
  // dimension and the footprint, and both corners read the element at
  // the packed offset computed here.
  for (const std::vector<long long>& shape :
       {std::vector<long long>{8, 6}, std::vector<long long>{8, 6, 5}}) {
    const std::size_t rank = shape.size();
    HostArray<double> arr(shape, 0.0);
    MapSpec spec;
    spec.name = "a";
    spec.dir = MapDirection::kTo;
    spec.binding = bind_array(arr);
    spec.region = arr.region();
    spec.partition.assign(rank, dist::DimPolicy::full());
    const dist::Region fp =
        rank == 2 ? dist::Region({dist::Range(2, 5), dist::Range(1, 4)})
                  : dist::Region({dist::Range(2, 5), dist::Range(1, 4),
                                  dist::Range(3, 5)});
    const std::string fp_text = rank == 2 ? "[2:5)[1:4)" : "[2:5)[1:4)[3:5)";
    DeviceMapping mapping(spec, fp, fp, false, true);
    auto view = mapping.view<double>();
    double* local = view.local_data();
    for (long long k = 0; k < fp.volume(); ++k) {
      local[k] = static_cast<double>(k);
    }

    std::vector<long long> lo(rank);
    std::vector<long long> last(rank);
    for (std::size_t d = 0; d < rank; ++d) {
      lo[d] = fp.dim(d).lo;
      last[d] = fp.dim(d).hi - 1;
    }
    auto at = [&](const std::vector<long long>& idx) -> double& {
      return rank == 2 ? view(idx[0], idx[1])
                       : view(idx[0], idx[1], idx[2]);
    };
    // Row-major packed offset of idx within the footprint.
    auto packed = [&](const std::vector<long long>& idx) {
      long long off = 0;
      for (std::size_t d = 0; d < rank; ++d) {
        off = off * fp.dim(d).size() + (idx[d] - fp.dim(d).lo);
      }
      return static_cast<double>(off);
    };
    EXPECT_EQ(at(lo), packed(lo));
    EXPECT_EQ(at(last), packed(last));

    for (std::size_t d = 0; d < rank; ++d) {
      for (long long bad : {fp.dim(d).lo - 1, fp.dim(d).hi}) {
        SCOPED_TRACE("rank " + std::to_string(rank) + " dim " +
                     std::to_string(d) + " index " + std::to_string(bad));
        std::vector<long long> idx = lo;
        idx[d] = bad;
        const std::string msg = access_error([&] { at(idx); });
        EXPECT_NE(msg.find("global index " + std::to_string(bad) +
                           " in dim " + std::to_string(d) +
                           " outside mapped footprint " + fp_text),
                  std::string::npos)
            << msg;
      }
    }
  }
}

TEST(DeviceMapping, OwnedMustBeInsideFootprint) {
  auto a = HostArray<double>::vector(10, 0.0);
  auto s = spec_1d(a, MapDirection::kTo);
  EXPECT_THROW(DeviceMapping(s, dist::Region({dist::Range(0, 8)}),
                             dist::Region({dist::Range(2, 5)}), false, true),
               ConfigError);
}

TEST(DeviceMapping, PushPullSubregions) {
  auto a = HostArray<double>::vector(10);
  a.fill_with_index([](long long i) { return static_cast<double>(i); });
  auto s = spec_1d(a, MapDirection::kAlloc);
  dist::Region owned({dist::Range(2, 8)});
  DeviceMapping m(s, owned, owned, false, true);
  auto v = m.view<double>();
  for (long long i = 2; i < 8; ++i) v(i) = 100.0 + i;
  m.push_to_host(dist::Region({dist::Range(2, 4)}));
  EXPECT_EQ(a(2), 102.0);
  EXPECT_EQ(a(4), 4.0);  // outside pushed band
  a(7) = -7.0;
  m.pull_from_host(dist::Region({dist::Range(7, 8)}));
  EXPECT_EQ(v(7), -7.0);
  EXPECT_THROW(m.push_to_host(dist::Region({dist::Range(0, 3)})),
               ConfigError);
}

TEST(DataEnv, LookupAndTotals) {
  auto a = HostArray<double>::vector(6, 1.0);
  auto b = HostArray<double>::vector(4, 2.0);
  auto sa = spec_1d(a, MapDirection::kTo);
  auto sb = spec_1d(b, MapDirection::kToFrom);
  sb.name = "b";
  sb.region = b.region();

  MappingStore store;
  dist::Region ra({dist::Range(0, 6)});
  dist::Region rb({dist::Range(0, 4)});
  auto& ma = store.create(sa, ra, ra, false, true);
  auto& mb = store.create(sb, rb, rb, false, true);
  DeviceDataEnv env;
  env.add("a", &ma);
  env.add("b", &mb);
  EXPECT_TRUE(env.contains("a"));
  EXPECT_FALSE(env.contains("c"));
  EXPECT_THROW(env.mapping("c"), ConfigError);
  EXPECT_EQ(env.total_bytes_in(), 6 * 8.0 + 4 * 8.0);
  EXPECT_EQ(env.total_bytes_out(), 4 * 8.0);
  EXPECT_THROW(env.add("a", &ma), ConfigError);
  auto fork = env.fork();
  EXPECT_TRUE(fork.contains("b"));
  EXPECT_EQ(fork.size(), 2u);
}

TEST(DataEnv, ViewTypeSizeMismatchThrows) {
  auto a = HostArray<double>::vector(4, 0.0);
  auto s = spec_1d(a, MapDirection::kTo);
  dist::Region r({dist::Range(0, 4)});
  MappingStore store;
  auto& m = store.create(s, r, r, false, true);
  DeviceDataEnv env;
  env.add("a", &m);
  EXPECT_THROW(env.view<float>("a"), ConfigError);
  EXPECT_NO_THROW(env.view<double>("a"));
}

}  // namespace
}  // namespace homp::mem
