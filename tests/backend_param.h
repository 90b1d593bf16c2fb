// Shared helper for the test suites value-parameterized over the
// SpecBuffer backends: one CamelCase name mapping, so adding a backend
// updates every suite's test names in one place.
#pragma once

#include <string>

#include "runtime/enums.h"

namespace mutls {

inline std::string backend_camel_name(BufferBackend b) {
  switch (b) {
    case BufferBackend::kStaticHash: return "StaticHash";
    case BufferBackend::kGrowableLog: return "GrowableLog";
  }
  return "Unknown";
}

}  // namespace mutls
