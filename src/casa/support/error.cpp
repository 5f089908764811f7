#include "casa/support/error.hpp"

#include <limits>
#include <sstream>

namespace casa {

unsigned checked_unsigned(std::uint64_t value, const std::string& key) {
  constexpr int kBits = std::numeric_limits<unsigned>::digits;
  if (value > std::numeric_limits<unsigned>::max()) {
    throw PreconditionError("'" + key + "' = " + std::to_string(value) +
                            " does not fit in " + std::to_string(kBits) +
                            " bits");
  }
  return static_cast<unsigned>(value);
}

}  // namespace casa

namespace casa::detail {

void raise_check_failure(const char* expr, const char* file, int line,
                         const std::string& msg) {
  std::ostringstream os;
  os << "CASA_CHECK failed: (" << expr << ") at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw PreconditionError(os.str());
}

}  // namespace casa::detail
