#include "exec/profile.h"

#include <algorithm>
#include <atomic>

#include "exec/dispatch.h"

namespace mutls::exec {

std::vector<RegionHeat> snapshot_heat(const DecodedModule& dm) {
  std::vector<RegionHeat> out;
  dm.for_each_region([&](const DecodedFunction& df, const RegionInfo& r) {
    RegionHeat h;
    h.function = df.fn->name;
    h.header = r.label;
    h.header_block = r.header_block;
    h.count = r.heat.load(std::memory_order_relaxed);
    out.push_back(std::move(h));
  });
  std::sort(out.begin(), out.end(),
            [](const RegionHeat& a, const RegionHeat& b) {
              if (a.count != b.count) return a.count > b.count;
              if (a.function != b.function) return a.function < b.function;
              return a.header_block < b.header_block;
            });
  return out;
}

}  // namespace mutls::exec
