#include "hypervisor/vm.h"

#include <cstring>
#include <stdexcept>

namespace crimes {

const char* to_string(VmState state) {
  switch (state) {
    case VmState::Running: return "Running";
    case VmState::Suspended: return "Suspended";
    case VmState::Paused: return "Paused";
    case VmState::Destroyed: return "Destroyed";
  }
  return "?";
}

Vm::Vm(DomainId id, std::string name, std::size_t page_count,
       MachineMemory& machine)
    : id_(id),
      name_(std::move(name)),
      machine_(machine),
      pfn_to_mfn_(page_count, Mfn::invalid()),
      dirty_(page_count),
      monitor_(page_count) {}

Vm::~Vm() {
  if (state_ != VmState::Destroyed) {
    for (const Mfn mfn : pfn_to_mfn_) {
      if (mfn.is_valid()) machine_.free_frame(mfn);
    }
  }
}

void Vm::suspend() {
  require_state(VmState::Running, "suspend");
  state_ = VmState::Suspended;
}

void Vm::resume() {
  require_state(VmState::Suspended, "resume");
  state_ = VmState::Running;
}

void Vm::pause() {
  if (state_ == VmState::Destroyed) {
    throw std::logic_error("Vm::pause: domain destroyed");
  }
  state_ = VmState::Paused;
}

void Vm::unpause() {
  require_state(VmState::Paused, "unpause");
  state_ = VmState::Running;
}

void Vm::destroy() {
  if (state_ == VmState::Destroyed) return;
  for (const Mfn mfn : pfn_to_mfn_) {
    if (mfn.is_valid()) machine_.free_frame(mfn);
  }
  pfn_to_mfn_.clear();
  state_ = VmState::Destroyed;
}

Mfn Vm::mfn_of(Pfn pfn) const {
  if (pfn.value() >= pfn_to_mfn_.size()) {
    throw std::out_of_range("Vm::mfn_of: PFN out of range for domain " +
                            name_);
  }
  return pfn_to_mfn_[pfn.value()];
}

bool Vm::is_backed(Pfn pfn) const { return mfn_of(pfn).is_valid(); }

Page& Vm::page(Pfn pfn) {
  Mfn mfn = mfn_of(pfn);
  if (!mfn.is_valid()) {
    mfn = machine_.allocate_frame();
    pfn_to_mfn_[pfn.value()] = mfn;
  }
  return machine_.frame(mfn);
}

const Page& Vm::page(Pfn pfn) const {
  const Mfn mfn = mfn_of(pfn);
  if (!mfn.is_valid()) return zero_page();
  return machine_.frame(mfn);
}

void Vm::write_phys(Paddr addr, std::span<const std::byte> data,
                    Vaddr vaddr_hint) {
  check_writable("write_phys");
  std::size_t done = 0;
  while (done < data.size()) {
    const Paddr cur{addr.value() + done};
    const Pfn pfn = cur.pfn();
    const std::uint64_t offset = cur.page_offset();
    const std::size_t chunk =
        std::min(data.size() - done, kPageSize - offset);

    // CoW first-touch trap: fire before the guest's bytes land, so the
    // handler copies the page's pre-write (checkpoint-consistent) content.
    if (monitor_.cow_protected(pfn)) monitor_.cow_fault(pfn);

    Page& pg = page(pfn);
    std::memcpy(pg.data.data() + offset, data.data() + done, chunk);

    if (log_dirty_) dirty_.mark(pfn);
    if (monitor_.watches(pfn)) {
      monitor_.deliver(MemEvent{
          .pfn = pfn,
          .offset = offset,
          .length = chunk,
          .type = MemAccess::Write,
          .instr_index = vcpu_.instr_retired,
          .vaddr = vaddr_hint.is_null() ? Vaddr{0} : vaddr_hint + done,
      });
    }
    done += chunk;
  }
  bytes_written_ += data.size();
}

void Vm::read_phys(Paddr addr, std::span<std::byte> out) const {
  if (state_ == VmState::Destroyed) {
    throw std::logic_error("Vm::read_phys: domain destroyed");
  }
  std::size_t done = 0;
  while (done < out.size()) {
    const Paddr cur{addr.value() + done};
    const Pfn pfn = cur.pfn();
    const std::uint64_t offset = cur.page_offset();
    const std::size_t chunk = std::min(out.size() - done, kPageSize - offset);
    const Page& pg = page(pfn);
    std::memcpy(out.data() + done, pg.data.data() + offset, chunk);
    done += chunk;
  }
}

void Vm::enable_log_dirty() {
  log_dirty_ = true;
  dirty_.clear_all();
}

void Vm::disable_log_dirty() { log_dirty_ = false; }

void Vm::require_state(VmState expected, const char* op) const {
  if (state_ != expected) {
    throw std::logic_error(std::string("Vm::") + op + ": domain " + name_ +
                           " is " + to_string(state_) + ", expected " +
                           to_string(expected));
  }
}

void Vm::check_writable(const char* op) const {
  // The guest can only execute (and thus write) while Running. Dom0-side
  // tools use foreign mappings instead, which bypass this check.
  if (state_ != VmState::Running) {
    throw std::logic_error(std::string("Vm::") + op + ": domain " + name_ +
                           " is " + to_string(state_) + ", not Running");
  }
}

}  // namespace crimes
