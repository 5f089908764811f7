#include "casa/trace/compiled_stream.hpp"

#include <algorithm>

#include "casa/support/error.hpp"

namespace casa::trace {

CompiledStream::CompiledStream(const prog::Program& program,
                               const std::vector<Addr>& block_addr,
                               Bytes line_size)
    : line_size_(line_size) {
  CASA_CHECK(is_pow2(line_size) && line_size >= kWordBytes,
             "line size must be a power of two >= one word");
  CASA_CHECK(block_addr.size() == program.block_count(),
             "block_addr must cover every basic block");

  block_runs_.resize(program.block_count());
  for (std::size_t i = 0; i < program.block_count(); ++i) {
    const BasicBlockId bb(static_cast<std::uint32_t>(i));
    BlockRuns& br = block_runs_[i];
    br.first = static_cast<std::uint32_t>(runs_.size());
    const Bytes size = program.block(bb).size;
    br.words = static_cast<std::uint32_t>(size / kWordBytes);
    if (block_addr[i] == kNotCached) continue;
    br.cached = true;

    // Split [base, base + size) into maximal same-line word runs.
    const Addr base = block_addr[i];
    Addr addr = base;
    const Addr end = base + size;
    while (addr < end) {
      const Addr line_end = (addr / line_size + 1) * line_size;
      const Addr run_end = line_end < end ? line_end : end;
      runs_.push_back(LineRun{
          addr, addr / line_size,
          static_cast<std::uint32_t>((run_end - addr) / kWordBytes)});
      addr = run_end;
    }
    br.count = static_cast<std::uint32_t>(runs_.size()) - br.first;
  }
}

std::pair<std::uint64_t, std::uint64_t> CompiledStream::line_span() const {
  std::uint64_t first = ~std::uint64_t{0};
  std::uint64_t end = 0;
  for (const LineRun& run : runs_) {
    first = std::min(first, run.line);
    end = std::max(end, run.line + 1);
  }
  return {std::min(first, end), end};
}

}  // namespace casa::trace
