// Volatility-style forensics plugins over MemoryDump snapshots.
//
// Plugin semantics follow the tools the paper invokes (sections 4.2, 5.5,
// 5.6):
//   pslist   -- walk the kernel's task list (what the OS *claims* runs)
//   psscan   -- heuristic sweep of raw physical memory for task records
//               (finds processes a rootkit unlinked)
//   psxview  -- cross-view of pslist / psscan / pid-hash membership
//   modscan  -- module list walk plus raw sweep for module records
//   netscan  -- parse the socket table
//   handles  -- parse the open-file-handle table
//   procdump -- extract a process image for sandbox analysis
//   proc_maps/linux_dump_map -- address-space map and region dump
//   syscall_table -- raw table contents
// plus DumpDiff, which compares two dumps around an attack (section 3.3:
// "CRIMES can determine the differences between the two dumps and
// highlight them for an investigator").
#pragma once

#include "forensics/memory_dump.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace crimes::forensics {

struct PsEntry {
  Pid pid;
  std::uint32_t uid = 0;
  std::string name;
  std::uint32_t state = 0;
  std::uint64_t start_time_ns = 0;
  Vaddr task_va;
};

[[nodiscard]] std::vector<PsEntry> pslist(const MemoryDump& dump);
[[nodiscard]] std::vector<PsEntry> psscan(const MemoryDump& dump);

struct PsxRow {
  PsEntry proc;
  bool in_pslist = false;
  bool in_psscan = false;
  bool in_pid_hash = false;

  // A row that psscan/pid-hash sees but pslist does not is the paper's
  // "potentially malicious" signature.
  [[nodiscard]] bool suspicious() const { return !in_pslist; }
};

[[nodiscard]] std::vector<PsxRow> psxview(const MemoryDump& dump);

struct ModEntry {
  std::string name;
  std::uint64_t size = 0;
  Vaddr module_va;
  bool in_list = false;  // reachable from the modules list head
};

[[nodiscard]] std::vector<ModEntry> modscan(const MemoryDump& dump);

struct NetscanRow {
  Pid pid;
  std::uint32_t proto = 6;
  std::uint32_t state = 0;
  std::string local;   // "a.b.c.d:port"
  std::string remote;
  Vaddr entry_va;
};

[[nodiscard]] const char* tcp_state_name(std::uint32_t state);
[[nodiscard]] std::vector<NetscanRow> netscan(const MemoryDump& dump);

struct HandleRow {
  Pid pid;
  std::string path;
  Vaddr entry_va;
};

[[nodiscard]] std::vector<HandleRow> handles(const MemoryDump& dump);

struct ProcdumpResult {
  PsEntry proc;
  std::vector<std::byte> image;  // extracted task record + context bytes
};

// Returns nullopt when the pid is not found in either pslist or psscan.
[[nodiscard]] std::optional<ProcdumpResult> procdump(const MemoryDump& dump,
                                                     Pid pid);

struct VadRegion {
  Vaddr start;
  Vaddr end;
  std::string label;
};

// linux_proc_maps-style address-space map for one process.
[[nodiscard]] std::vector<VadRegion> proc_maps(const MemoryDump& dump,
                                               Pid pid);

// linux_dump_map: raw bytes of one mapped region (clamped to `max_bytes`).
[[nodiscard]] std::vector<std::byte> dump_map(const MemoryDump& dump,
                                              const VadRegion& region,
                                              std::size_t max_bytes);

[[nodiscard]] std::vector<std::uint64_t> syscall_table(const MemoryDump& dump);

// --- malfind: shellcode hunting ---------------------------------------------

struct MalfindHit {
  Vaddr va;            // start of the suspicious bytes
  std::size_t length = 0;
  std::string reason;  // e.g. "NOP sled (24 bytes) + syscall stub"
};

// Sweeps raw physical memory for shellcode signatures: runs of at least
// `min_sled` 0x90 NOPs (a `min_sled` of 0 counts as 1), each with the
// `mov rax, imm; syscall` stub that may follow it. Like Volatility's
// malfind, it trades false positives for coverage; callers triage the hits.
[[nodiscard]] std::vector<MalfindHit> malfind(const MemoryDump& dump,
                                              std::size_t min_sled = 16);

// --- timeline: event ordering --------------------------------------------------

struct TimelineEvent {
  std::uint64_t at_ns = 0;
  std::string description;
};

// Orders process starts (from psscan, so hidden processes appear too)
// into a forensic timeline.
[[nodiscard]] std::vector<TimelineEvent> timeline(const MemoryDump& dump);

// --- Dump diffing -----------------------------------------------------------

struct DumpDiff {
  std::vector<Pfn> changed_pages;
  std::vector<PsEntry> new_processes;
  std::vector<PsEntry> exited_processes;
  std::vector<NetscanRow> new_sockets;
  std::vector<HandleRow> new_handles;
  std::vector<std::size_t> changed_syscall_slots;

  [[nodiscard]] static DumpDiff compute(const MemoryDump& before,
                                        const MemoryDump& after);
  [[nodiscard]] bool empty() const {
    return changed_pages.empty() && new_processes.empty() &&
           exited_processes.empty() && new_sockets.empty() &&
           new_handles.empty() && changed_syscall_slots.empty();
  }
};

}  // namespace crimes::forensics
