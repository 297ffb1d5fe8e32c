// Memory-event monitoring: the simulator's equivalent of Xen's mem_access
// event channels consumed through LibVMI's VMI_EVENT_MEMORY interface.
//
// A monitor watches a set of guest pages; once *enabled*, every read/write/
// execute touching a watched page appends an event to a bounded ring buffer
// and the offending vCPU is held until the consumer responds. The paper
// stresses that this is expensive, so CRIMES only enables it during replay
// (section 4.2); the Checkpointer asserts it stays disabled in the normal
// epoch loop.
#pragma once

#include "common/types.h"
#include "hypervisor/dirty_bitmap.h"

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>

namespace crimes {

enum class MemAccess : std::uint8_t { Read, Write, Execute };

struct MemEvent {
  Pfn pfn;                    // page the access hit
  std::uint64_t offset;       // byte offset within the page
  std::uint64_t length;       // access width in bytes
  MemAccess type;
  std::uint64_t instr_index;  // vCPU instruction counter at the access
  Vaddr vaddr;                // guest-virtual address, if known (else 0)
};

class MemoryEventMonitor {
 public:
  // Ring capacity mirrors Xen's one-page event ring.
  static constexpr std::size_t kRingCapacity = 64;

  // Both page sets below are one bit per guest page (32 KiB per GiB of
  // guest each), sized by the owning Vm. Arming a PFN at or past the page
  // count throws std::out_of_range; testing one reads as unarmed, so the
  // write path's own bounds check (Vm::page) reports it.
  explicit MemoryEventMonitor(std::size_t page_count)
      : watched_(page_count), cow_protected_(page_count) {}

  void watch_page(Pfn pfn) { watched_.mark(pfn); }
  void clear_watches() { watched_.clear_all(); }

  void enable() { enabled_ = true; }
  void disable() {
    enabled_ = false;
    ring_.clear();
    dropped_ = 0;
  }
  [[nodiscard]] bool enabled() const { return enabled_; }

  [[nodiscard]] bool watches(Pfn pfn) const {
    return enabled_ && pfn.value() < watched_.page_count() &&
           watched_.test(pfn);
  }

  // Called by the VM's access path. Returns true if the event was queued
  // (meaning the access trapped).
  bool deliver(const MemEvent& event);

  // Consumer side (LibVMI-style): pop the next pending event.
  [[nodiscard]] std::optional<MemEvent> poll();

  [[nodiscard]] std::size_t pending() const { return ring_.size(); }
  [[nodiscard]] std::size_t dropped() const { return dropped_; }
  [[nodiscard]] std::size_t delivered() const { return delivered_; }

  // --- Copy-on-write protection (speculative checkpointing) -------------
  // A second, lighter use of the same mem_access machinery: the CoW
  // checkpointer write-protects the dirty set and handles the fault
  // synchronously in dom0 (copy the page aside, unprotect, re-enter) --
  // no ring, no vCPU hold, independent of the replay-only enabled_ flag
  // above. The handler runs *before* the guest's bytes land, so it sees
  // the page's pre-write (checkpoint-consistent) contents.
  using CowHandler = std::function<void(Pfn)>;

  void cow_protect(std::span<const Pfn> pfns, CowHandler handler) {
    cow_handler_ = std::move(handler);
    for (const Pfn pfn : pfns) cow_protected_.mark(pfn);
  }
  void cow_unprotect_all() {
    cow_protected_.clear_all();
    cow_handler_ = nullptr;
  }
  // The live count of protected pages makes the unarmed case (every
  // stop-copy epoch) a single compare per write.
  [[nodiscard]] bool cow_protected(Pfn pfn) const {
    return cow_protected_.dirty_count() != 0 &&
           pfn.value() < cow_protected_.page_count() &&
           cow_protected_.test(pfn);
  }
  // Fires the first-touch handler for `pfn` and drops its protection.
  // Called by Vm::write_phys before the write's memcpy.
  void cow_fault(Pfn pfn) {
    cow_protected_.clear(pfn);
    if (cow_handler_) cow_handler_(pfn);
  }

 private:
  bool enabled_ = false;
  DirtyBitmap watched_;
  std::deque<MemEvent> ring_;
  std::size_t dropped_ = 0;
  std::size_t delivered_ = 0;
  DirtyBitmap cow_protected_;
  CowHandler cow_handler_;
};

}  // namespace crimes
