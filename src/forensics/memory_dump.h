// Full-system memory dump: the input to the Volatility-style plugins.
//
// A dump is a frozen copy of a VM's backed frames plus its vCPU state,
// labelled and timestamped. Only the frames the VM had backed at capture are
// copied; every other PFN reads as zero_page(), exactly as Vm::page(Pfn)
// const does. page_count() and byte_size() still report the guest's full
// size. CRIMES snapshots three of these around an attack: the last
// clean checkpoint, the end of the failed epoch, and (after replay) the
// precise attack instant (section 5.5).
#pragma once

#include "common/sim_clock.h"
#include "common/types.h"
#include "guestos/kernel_layout.h"
#include "hypervisor/vm.h"

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace crimes {

class MemoryDump {
 public:
  // Captures `vm` in whatever state it is in (dom0 can dump suspended and
  // paused domains alike).
  static MemoryDump capture(const Vm& vm, const SymbolTable& symbols,
                            OsFlavor flavor, std::string label,
                            Nanos captured_at);

  [[nodiscard]] const std::string& label() const { return label_; }
  [[nodiscard]] Nanos captured_at() const { return captured_at_; }
  [[nodiscard]] OsFlavor flavor() const { return flavor_; }
  [[nodiscard]] const SymbolTable& symbols() const { return symbols_; }
  [[nodiscard]] const VcpuState& vcpu() const { return vcpu_; }

  [[nodiscard]] std::size_t page_count() const { return slot_.size(); }
  [[nodiscard]] const Page& page(Pfn pfn) const;
  [[nodiscard]] bool is_backed(Pfn pfn) const;
  // The PFNs backed at capture, ascending. Raw sweeps visit only these:
  // every other page is all zeroes.
  [[nodiscard]] std::span<const Pfn> backed() const { return backed_; }

  // VA-space reads through the dumped page table (rooted at the dumped
  // CR3). Return nullopt on translation faults -- forensics tools must
  // survive corrupted page tables.
  [[nodiscard]] std::optional<Paddr> translate(Vaddr va) const;
  [[nodiscard]] bool read_bytes(Vaddr va, std::span<std::byte> out) const;
  [[nodiscard]] std::optional<std::uint64_t> read_u64(Vaddr va) const;
  [[nodiscard]] std::optional<std::uint32_t> read_u32(Vaddr va) const;
  [[nodiscard]] std::optional<std::string> read_str(Vaddr va,
                                                    std::size_t max_len) const;

  // Size on disk if persisted (used for cost accounting).
  [[nodiscard]] std::uint64_t byte_size() const {
    return page_count() * kPageSize;
  }

 private:
  MemoryDump() = default;
  [[nodiscard]] std::uint32_t slot_of(Pfn pfn) const;

  static constexpr std::uint32_t kUnbacked = UINT32_MAX;

  std::string label_;
  Nanos captured_at_{0};
  OsFlavor flavor_ = OsFlavor::Linux;
  SymbolTable symbols_;
  VcpuState vcpu_;
  std::vector<std::uint32_t> slot_;  // PFN -> index into pages_, or kUnbacked
  std::vector<Pfn> backed_;
  std::vector<Page> pages_;          // one copy per backed PFN
};

}  // namespace crimes
