#include "forensics/plugins.h"

#include "common/bytes.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <iterator>
#include <unordered_map>
#include <unordered_set>

namespace crimes::forensics {

namespace {

constexpr std::size_t kMaxListWalk = 1 << 16;

std::optional<PsEntry> read_task(const MemoryDump& dump, Vaddr task_va) {
  const auto pid = dump.read_u32(task_va + TaskLayout::kPidOff);
  const auto uid = dump.read_u32(task_va + TaskLayout::kUidOff);
  const auto state = dump.read_u32(task_va + TaskLayout::kStateOff);
  const auto name = dump.read_str(task_va + TaskLayout::kCommOff,
                                  TaskLayout::kCommLen);
  const auto start = dump.read_u64(task_va + TaskLayout::kStartTimeOff);
  if (!pid || !uid || !state || !name || !start) return std::nullopt;
  return PsEntry{.pid = Pid{*pid}, .uid = *uid, .name = *name,
                 .state = *state, .start_time_ns = *start, .task_va = task_va};
}

Vaddr head_symbol(const MemoryDump& dump, const char* which) {
  const SymbolNames names = SymbolNames::for_flavor(dump.flavor());
  if (std::string(which) == "tasks") return dump.symbols().lookup(names.task_list_head);
  if (std::string(which) == "modules") {
    return dump.symbols().lookup(names.module_list_head);
  }
  throw std::logic_error("head_symbol: unknown head");
}

bool plausible_name(const std::string& name) {
  if (name.empty()) return false;
  return std::all_of(name.begin(), name.end(), [](unsigned char c) {
    return std::isprint(c) != 0;
  });
}

}  // namespace

std::vector<PsEntry> pslist(const MemoryDump& dump) {
  std::vector<PsEntry> out;
  const Vaddr head = head_symbol(dump, "tasks");
  auto next = dump.read_u64(head + TaskLayout::kNextOff);
  std::size_t steps = 0;
  while (next && Vaddr{*next} != head) {
    if (++steps > kMaxListWalk) break;  // corrupted list: stop, keep partial
    const Vaddr cur{*next};
    if (auto task = read_task(dump, cur)) out.push_back(std::move(*task));
    next = dump.read_u64(cur + TaskLayout::kNextOff);
  }
  return out;
}

std::vector<PsEntry> psscan(const MemoryDump& dump) {
  // Heuristic raw sweep: look for the task magic at every 16-byte-aligned
  // offset of every backed physical page, then sanity-check the candidate
  // record. (Unbacked pages are all zeroes and hold no magic.)
  std::vector<PsEntry> out;
  for (const Pfn pfn : dump.backed()) {
    const auto bytes = dump.page(pfn).bytes();
    for (std::size_t off = 0; off + TaskLayout::kSize <= kPageSize;
         off += 16) {
      if (load_le<std::uint32_t>(bytes, off + TaskLayout::kMagicOff) !=
          TaskLayout::kMagic) {
        continue;
      }
      const auto pid = load_le<std::uint32_t>(bytes, off + TaskLayout::kPidOff);
      const std::string name =
          load_cstr(bytes, off + TaskLayout::kCommOff, TaskLayout::kCommLen);
      if (pid > 4'000'000 || !plausible_name(name)) continue;
      out.push_back(PsEntry{
          .pid = Pid{pid},
          .uid = load_le<std::uint32_t>(bytes, off + TaskLayout::kUidOff),
          .name = name,
          .state = load_le<std::uint32_t>(bytes, off + TaskLayout::kStateOff),
          .start_time_ns =
              load_le<std::uint64_t>(bytes, off + TaskLayout::kStartTimeOff),
          .task_va = Vaddr{kVaBase + (pfn.value() << kPageShift) + off},
      });
    }
  }
  return out;
}

std::vector<PsxRow> psxview(const MemoryDump& dump) {
  const auto listed = pslist(dump);
  const auto scanned = psscan(dump);

  std::unordered_set<std::uint64_t> in_list;
  for (const auto& p : listed) in_list.insert(p.task_va.value());

  std::unordered_set<std::uint64_t> in_hash;
  {
    const SymbolNames names = SymbolNames::for_flavor(dump.flavor());
    const Vaddr table = dump.symbols().lookup(names.pid_hash);
    for (std::size_t i = 0; i < kPidHashBuckets; ++i) {
      if (auto v = dump.read_u64(table + i * 8); v && *v != 0) {
        in_hash.insert(*v);
      }
    }
  }

  std::vector<PsxRow> rows;
  std::unordered_set<std::uint64_t> seen;
  for (const auto& p : scanned) {
    if (p.pid.value() == 0) continue;  // the idle/swapper sentinel
    seen.insert(p.task_va.value());
    rows.push_back(PsxRow{
        .proc = p,
        .in_pslist = in_list.contains(p.task_va.value()),
        .in_psscan = true,
        .in_pid_hash = in_hash.contains(p.task_va.value()),
    });
  }
  // Anything pslist saw that psscan somehow missed still gets a row.
  for (const auto& p : listed) {
    if (seen.contains(p.task_va.value())) continue;
    rows.push_back(PsxRow{
        .proc = p,
        .in_pslist = true,
        .in_psscan = false,
        .in_pid_hash = in_hash.contains(p.task_va.value()),
    });
  }
  std::sort(rows.begin(), rows.end(), [](const PsxRow& a, const PsxRow& b) {
    return a.proc.pid < b.proc.pid;
  });
  return rows;
}

std::vector<ModEntry> modscan(const MemoryDump& dump) {
  std::unordered_set<std::uint64_t> in_list;
  {
    const Vaddr head = head_symbol(dump, "modules");
    auto next = dump.read_u64(head + ModuleLayout::kNextOff);
    std::size_t steps = 0;
    while (next && Vaddr{*next} != head && ++steps <= kMaxListWalk) {
      in_list.insert(*next);
      next = dump.read_u64(Vaddr{*next} + ModuleLayout::kNextOff);
    }
  }

  std::vector<ModEntry> out;
  for (const Pfn pfn : dump.backed()) {
    const auto bytes = dump.page(pfn).bytes();
    for (std::size_t off = 0; off + ModuleLayout::kSize <= kPageSize;
         off += 16) {
      if (load_le<std::uint32_t>(bytes, off + ModuleLayout::kMagicOff) !=
          ModuleLayout::kMagic) {
        continue;
      }
      const std::string name =
          load_cstr(bytes, off + ModuleLayout::kNameOff,
                    ModuleLayout::kNameLen);
      if (!plausible_name(name) || name == "__module_head") continue;
      const Vaddr va{kVaBase + (pfn.value() << kPageShift) + off};
      out.push_back(ModEntry{
          .name = name,
          .size = load_le<std::uint64_t>(bytes, off + ModuleLayout::kSizeOff),
          .module_va = va,
          .in_list = in_list.contains(va.value()),
      });
    }
  }
  return out;
}

const char* tcp_state_name(std::uint32_t state) {
  switch (state) {
    case 1: return "ESTABLISHED";
    case 2: return "SYN_SENT";
    case 3: return "SYN_RECV";
    case 4: return "FIN_WAIT1";
    case 5: return "FIN_WAIT2";
    case 6: return "TIME_WAIT";
    case 7: return "CLOSE";
    case 8: return "CLOSE_WAIT";
    case 9: return "LAST_ACK";
    case 10: return "LISTEN";
    default: return "UNKNOWN";
  }
}

namespace {

// Calls `emit(base)` for each entry of the table at `table` whose magic
// matches. The tables carry no length, so the walk runs until a magic read
// faults; the guest maps every page but PFN 0, so that is the end of guest
// memory. A magic on a frame that was unbacked at capture reads as zero, so
// the walk steps straight to the first entry whose magic lies on the next
// page.
template <typename Layout, typename Emit>
void walk_table(const MemoryDump& dump, Vaddr table, Emit emit) {
  for (std::uint64_t i = 0;;) {
    const Vaddr base = table + i * Layout::kSize;
    const Vaddr magic_va = base + Layout::kMagicOff;
    const auto pa = dump.translate(magic_va);
    if (pa && !dump.is_backed(pa->pfn())) {
      const std::uint64_t next_page = (magic_va.value() | kPageOffsetMask) + 1;
      const std::uint64_t first = table.value() + Layout::kMagicOff;
      i = (next_page - first + Layout::kSize - 1) / Layout::kSize;
      continue;
    }
    const auto magic = dump.read_u32(magic_va);
    if (!magic) break;  // ran off the end of the mapped address space
    if (*magic == Layout::kMagic) emit(base);
    ++i;
  }
}

std::string endpoint(std::uint32_t ip, std::uint16_t port) {
  return std::to_string((ip >> 24) & 0xFF) + "." +
         std::to_string((ip >> 16) & 0xFF) + "." +
         std::to_string((ip >> 8) & 0xFF) + "." + std::to_string(ip & 0xFF) +
         ":" + std::to_string(port);
}
}  // namespace

std::vector<NetscanRow> netscan(const MemoryDump& dump) {
  std::vector<NetscanRow> out;
  const SymbolNames names = SymbolNames::for_flavor(dump.flavor());
  const Vaddr table = dump.symbols().lookup(names.socket_table);
  walk_table<SocketLayout>(dump, table, [&](Vaddr base) {
    out.push_back(NetscanRow{
        .pid = Pid{dump.read_u32(base + SocketLayout::kPidOff).value_or(0)},
        .proto = dump.read_u32(base + SocketLayout::kProtoOff).value_or(0),
        .state = dump.read_u32(base + SocketLayout::kStateOff).value_or(0),
        .local = endpoint(
            dump.read_u32(base + SocketLayout::kLocalIpOff).value_or(0),
            static_cast<std::uint16_t>(
                dump.read_u32(base + SocketLayout::kLocalPortOff)
                    .value_or(0))),
        .remote = endpoint(
            dump.read_u32(base + SocketLayout::kRemoteIpOff).value_or(0),
            static_cast<std::uint16_t>(
                dump.read_u32(base + SocketLayout::kRemotePortOff)
                    .value_or(0))),
        .entry_va = base,
    });
  });
  return out;
}

std::vector<HandleRow> handles(const MemoryDump& dump) {
  std::vector<HandleRow> out;
  const SymbolNames names = SymbolNames::for_flavor(dump.flavor());
  const Vaddr table = dump.symbols().lookup(names.file_table);
  walk_table<FileHandleLayout>(dump, table, [&](Vaddr base) {
    out.push_back(HandleRow{
        .pid = Pid{dump.read_u32(base + FileHandleLayout::kPidOff)
                       .value_or(0)},
        .path = dump.read_str(base + FileHandleLayout::kPathOff,
                              FileHandleLayout::kPathLen)
                    .value_or(""),
        .entry_va = base,
    });
  });
  return out;
}

std::optional<ProcdumpResult> procdump(const MemoryDump& dump, Pid pid) {
  std::optional<PsEntry> target;
  for (const auto& p : pslist(dump)) {
    if (p.pid == pid) { target = p; break; }
  }
  if (!target) {
    for (const auto& p : psscan(dump)) {
      if (p.pid == pid) { target = p; break; }
    }
  }
  if (!target) return std::nullopt;

  ProcdumpResult result;
  result.proc = *target;
  // Extract the task record plus the surrounding slab page: enough context
  // for sandbox analysis of the simulated "executable".
  result.image.resize(kPageSize);
  const Vaddr page_start{target->task_va.value() & ~kPageOffsetMask};
  if (!dump.read_bytes(page_start, result.image)) result.image.clear();
  return result;
}

std::vector<VadRegion> proc_maps(const MemoryDump& dump, Pid pid) {
  std::vector<VadRegion> out;
  std::optional<PsEntry> target;
  for (const auto& p : pslist(dump)) {
    if (p.pid == pid) { target = p; break; }
  }
  if (!target) return out;

  const auto mm = dump.read_u64(target->task_va + TaskLayout::kMmOff);
  if (mm && *mm != 0) {
    // The guest is a single-address-space image; report its heap window.
    const SymbolNames names = SymbolNames::for_flavor(dump.flavor());
    const Vaddr heap{*mm};
    out.push_back(VadRegion{.start = heap,
                            .end = Vaddr{kVaBase + (dump.page_count()
                                                    << kPageShift)},
                            .label = "[heap]"});
    out.push_back(VadRegion{
        .start = dump.symbols().lookup(names.kernel_text),
        .end = dump.symbols().lookup(names.kernel_text) + 64 * kPageSize,
        .label = "[text]"});
  }
  return out;
}

std::vector<std::byte> dump_map(const MemoryDump& dump,
                                const VadRegion& region,
                                std::size_t max_bytes) {
  const std::uint64_t span_bytes = region.end.value() - region.start.value();
  const std::size_t n =
      static_cast<std::size_t>(std::min<std::uint64_t>(span_bytes, max_bytes));
  std::vector<std::byte> out(n);
  if (!dump.read_bytes(region.start, out)) out.clear();
  return out;
}

std::vector<std::uint64_t> syscall_table(const MemoryDump& dump) {
  const SymbolNames names = SymbolNames::for_flavor(dump.flavor());
  const Vaddr table = dump.symbols().lookup(names.syscall_table);
  std::vector<std::uint64_t> out(kSyscallCount);
  if (!dump.read_bytes(table,
                       std::span<std::byte>(
                           reinterpret_cast<std::byte*>(out.data()),
                           out.size() * sizeof(std::uint64_t)))) {
    out.clear();
  }
  return out;
}


std::vector<MalfindHit> malfind(const MemoryDump& dump,
                                std::size_t min_sled) {
  // A sled of zero bytes is no sled: an empty run never counts as a hit.
  min_sled = std::max<std::size_t>(min_sled, 1);
  std::vector<MalfindHit> hits;
  // Unbacked pages are all zeroes and hold no NOP.
  for (const Pfn pfn : dump.backed()) {
    const auto bytes = dump.page(pfn).bytes();
    std::size_t i = 0;
    while (i < kPageSize) {
      // Jump to the next 0x90, then count the run of NOPs there.
      const void* nop = std::memchr(bytes.data() + i, 0x90, kPageSize - i);
      if (nop == nullptr) break;
      i = static_cast<std::size_t>(static_cast<const std::byte*>(nop) -
                                   bytes.data());
      std::size_t sled = 0;
      while (i + sled < kPageSize && bytes[i + sled] == std::byte{0x90}) {
        ++sled;
      }
      if (sled >= min_sled) {
        // Does a syscall stub follow? mov rax, imm32 (48 C7 C0 ..) then
        // syscall (0F 05).
        const std::size_t after = i + sled;
        bool stub = false;
        if (after + 9 <= kPageSize && bytes[after] == std::byte{0x48} &&
            bytes[after + 1] == std::byte{0xC7} &&
            bytes[after + 2] == std::byte{0xC0} &&
            bytes[after + 7] == std::byte{0x0F} &&
            bytes[after + 8] == std::byte{0x05}) {
          stub = true;
        }
        hits.push_back(MalfindHit{
            .va = Vaddr{kVaBase + (pfn.value() << kPageShift) + i},
            .length = sled + (stub ? 9 : 0),
            .reason = "NOP sled (" + std::to_string(sled) + " bytes)" +
                      (stub ? " + syscall stub" : ""),
        });
        i = after + (stub ? 9 : 0);
        continue;
      }
      i += sled;
    }
  }
  return hits;
}

std::vector<TimelineEvent> timeline(const MemoryDump& dump) {
  std::vector<TimelineEvent> events;
  std::unordered_set<std::uint64_t> listed;
  for (const auto& p : pslist(dump)) listed.insert(p.task_va.value());
  for (const auto& p : psscan(dump)) {
    if (p.pid.value() == 0) continue;
    const bool hidden = !listed.contains(p.task_va.value());
    events.push_back(TimelineEvent{
        .at_ns = p.start_time_ns,
        .description = "process '" + p.name + "' (pid " +
                       std::to_string(p.pid.value()) + ") started" +
                       (hidden ? " [HIDDEN from task list]" : ""),
    });
  }
  std::sort(events.begin(), events.end(),
            [](const TimelineEvent& a, const TimelineEvent& b) {
              return a.at_ns < b.at_ns;
            });
  return events;
}

DumpDiff DumpDiff::compute(const MemoryDump& before, const MemoryDump& after) {
  DumpDiff diff;

  // A PFN unbacked in both dumps reads as zero_page() in both: only PFNs
  // backed in either can differ.
  const std::size_t pages = std::min(before.page_count(), after.page_count());
  std::vector<Pfn> candidates;
  std::ranges::set_union(before.backed(), after.backed(),
                         std::back_inserter(candidates));
  for (const Pfn pfn : candidates) {
    if (pfn.value() >= pages) break;
    if (!(before.page(pfn) == after.page(pfn))) {
      diff.changed_pages.push_back(pfn);
    }
  }

  const auto idx = [](const std::vector<PsEntry>& v) {
    std::unordered_map<std::uint32_t, PsEntry> m;
    for (const auto& p : v) m.emplace(p.pid.value(), p);
    return m;
  };
  const auto before_ps = idx(pslist(before));
  const auto after_ps = idx(pslist(after));
  for (const auto& [pid, p] : after_ps) {
    if (!before_ps.contains(pid)) diff.new_processes.push_back(p);
  }
  for (const auto& [pid, p] : before_ps) {
    if (!after_ps.contains(pid)) diff.exited_processes.push_back(p);
  }

  std::unordered_set<std::uint64_t> before_socks;
  for (const auto& s : netscan(before)) before_socks.insert(s.entry_va.value());
  for (const auto& s : netscan(after)) {
    if (!before_socks.contains(s.entry_va.value())) {
      diff.new_sockets.push_back(s);
    }
  }

  std::unordered_set<std::uint64_t> before_handles;
  for (const auto& h : handles(before)) {
    before_handles.insert(h.entry_va.value());
  }
  for (const auto& h : handles(after)) {
    if (!before_handles.contains(h.entry_va.value())) {
      diff.new_handles.push_back(h);
    }
  }

  const auto sys_before = syscall_table(before);
  const auto sys_after = syscall_table(after);
  for (std::size_t i = 0;
       i < std::min(sys_before.size(), sys_after.size()); ++i) {
    if (sys_before[i] != sys_after[i]) diff.changed_syscall_slots.push_back(i);
  }
  return diff;
}

}  // namespace crimes::forensics
