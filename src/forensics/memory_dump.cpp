#include "forensics/memory_dump.h"

#include "common/bytes.h"
#include "guestos/guest_page_table.h"

#include <cstring>
#include <stdexcept>

namespace crimes {

MemoryDump MemoryDump::capture(const Vm& vm, const SymbolTable& symbols,
                               OsFlavor flavor, std::string label,
                               Nanos captured_at) {
  MemoryDump dump;
  dump.label_ = std::move(label);
  dump.captured_at_ = captured_at;
  dump.flavor_ = flavor;
  dump.symbols_ = symbols;
  dump.vcpu_ = vm.vcpu();
  const std::vector<Mfn>& p2m = vm.p2m();
  dump.slot_.assign(p2m.size(), kUnbacked);
  for (std::size_t i = 0; i < p2m.size(); ++i) {
    if (p2m[i].is_valid()) dump.backed_.push_back(Pfn{i});
  }
  dump.pages_.reserve(dump.backed_.size());
  for (const Pfn pfn : dump.backed_) {
    dump.slot_[pfn.value()] = static_cast<std::uint32_t>(dump.pages_.size());
    dump.pages_.push_back(vm.page(pfn));
  }
  return dump;
}

std::uint32_t MemoryDump::slot_of(Pfn pfn) const {
  if (pfn.value() >= slot_.size()) {
    throw std::out_of_range("MemoryDump: PFN out of range");
  }
  return slot_[pfn.value()];
}

const Page& MemoryDump::page(Pfn pfn) const {
  const std::uint32_t slot = slot_of(pfn);
  return slot == kUnbacked ? zero_page() : pages_[slot];
}

bool MemoryDump::is_backed(Pfn pfn) const {
  return slot_of(pfn) != kUnbacked;
}

std::optional<Paddr> MemoryDump::translate(Vaddr va) const {
  if (va.value() < kVaBase) return std::nullopt;
  const std::uint64_t vpn = (va.value() - kVaBase) >> kPageShift;
  if (vpn >= page_count()) return std::nullopt;

  const Pfn table_base{vcpu_.cr3 >> kPageShift};
  const std::uint64_t pte_byte_off = vpn * sizeof(std::uint64_t);
  const Pfn pte_page{table_base.value() + pte_byte_off / kPageSize};
  if (pte_page.value() >= page_count()) return std::nullopt;
  const std::uint64_t pte = load_le<std::uint64_t>(
      page(pte_page).bytes(), pte_byte_off % kPageSize);
  if ((pte & GuestPageTable::kPresent) == 0) return std::nullopt;
  const Pfn frame{pte >> kPageShift};
  if (frame.value() >= page_count()) return std::nullopt;
  return Paddr::from(frame, va.value() & kPageOffsetMask);
}

bool MemoryDump::read_bytes(Vaddr va, std::span<std::byte> out) const {
  std::size_t done = 0;
  while (done < out.size()) {
    const Vaddr cur = va + done;
    const auto pa = translate(cur);
    if (!pa) return false;
    const std::size_t chunk =
        std::min(out.size() - done, kPageSize - pa->page_offset());
    std::memcpy(out.data() + done,
                page(pa->pfn()).data.data() + pa->page_offset(), chunk);
    done += chunk;
  }
  return true;
}

std::optional<std::uint64_t> MemoryDump::read_u64(Vaddr va) const {
  std::uint64_t v;
  if (!read_bytes(va, std::span<std::byte>(reinterpret_cast<std::byte*>(&v),
                                           sizeof(v)))) {
    return std::nullopt;
  }
  return v;
}

std::optional<std::uint32_t> MemoryDump::read_u32(Vaddr va) const {
  std::uint32_t v;
  if (!read_bytes(va, std::span<std::byte>(reinterpret_cast<std::byte*>(&v),
                                           sizeof(v)))) {
    return std::nullopt;
  }
  return v;
}

std::optional<std::string> MemoryDump::read_str(Vaddr va,
                                                std::size_t max_len) const {
  std::vector<std::byte> buf(max_len);
  if (!read_bytes(va, buf)) return std::nullopt;
  return load_cstr(buf, 0, max_len);
}

}  // namespace crimes
