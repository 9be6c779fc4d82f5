// Host-CPU sampler for any bench or perfbench binary, loaded with LD_PRELOAD:
//
//   export NLSS_SAMPLER_OUT=run.samples
//   LD_PRELOAD=build/tools/libnlss_sampler.so ./nlss_perfbench ...
//   python3 tools/sampler_report.py run.samples
//
// It asks for a 1 kHz ITIMER_PROF (the kernel may deliver less: about
// 250 Hz on a HZ=250 kernel) and, in the SIGPROF handler, records the
// interrupted pc, the leaf's caller when the pc lies outside the main
// executable (the first main-executable code address on the stack below
// the frame pointer: a frameless libc leaf such as memcpy is charged to
// it), and the frame-pointer chain.  At exit it writes the raw stacks and
// /proc/self/maps to NLSS_SAMPLER_OUT (default nlss-sampler.out);
// sampler_report.py symbolizes them.  Build the profiled binary with
// -fno-omit-frame-pointer -g.  The sampler reads no simulator state and
// writes nothing the simulator reads, so no digest can move.  Only the main
// thread's stack is walked; other threads record their pc alone.
#include <signal.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace {

constexpr std::size_t kMaxDepth = 62;
constexpr std::size_t kLeafScanWords = 64;
// 200 s at the 1 kHz asked for; later samples are counted as dropped.
constexpr std::size_t kCapacity = 200000;

struct Sample {
  std::uint64_t depth;
  std::uintptr_t pc[kMaxDepth + 1];
};

Sample* g_samples = nullptr;
std::atomic<std::size_t> g_next{0};
std::uintptr_t g_stack_lo = 0;  // main thread's stack, as mapped at start
std::uintptr_t g_stack_hi = 0;
std::uintptr_t g_text_lo = 0;  // main executable's code
std::uintptr_t g_text_hi = 0;
const char* g_out = "nlss-sampler.out";

bool InText(std::uintptr_t a) { return a >= g_text_lo && a < g_text_hi; }

void OnProf(int /*sig*/, siginfo_t* /*info*/, void* context) {
  const std::size_t i = g_next.fetch_add(1, std::memory_order_relaxed);
  if (i >= kCapacity) return;
  const mcontext_t& mc = static_cast<ucontext_t*>(context)->uc_mcontext;
  const auto pc = static_cast<std::uintptr_t>(mc.gregs[REG_RIP]);
  const auto sp = static_cast<std::uintptr_t>(mc.gregs[REG_RSP]);
  auto fp = static_cast<std::uintptr_t>(mc.gregs[REG_RBP]);
  Sample& s = g_samples[i];
  std::size_t d = 0;
  s.pc[d++] = pc;
  s.pc[d++] = 0;  // the leaf's caller, when the leaf is outside the text
  // Below the main stack's mapped top (it grows down past g_stack_lo).
  const bool main_stack = sp < g_stack_hi && sp + (64u << 20) > g_stack_lo;
  if (main_stack && !InText(pc)) {
    const auto* word = reinterpret_cast<const std::uintptr_t*>(sp);
    for (std::size_t w = 0; w < kLeafScanWords; ++w) {
      if (sp + 8 * (w + 1) > g_stack_hi || (fp > sp && sp + 8 * w >= fp)) {
        break;
      }
      if (InText(word[w])) {
        s.pc[1] = word[w];
        break;
      }
    }
  }
  std::uintptr_t floor = sp;
  while (main_stack && d <= kMaxDepth && fp > floor && fp % 8 == 0 &&
         fp + 16 <= g_stack_hi) {
    const auto* frame = reinterpret_cast<const std::uintptr_t*>(fp);
    if (frame[1] == 0) break;
    s.pc[d++] = frame[1];
    floor = fp;
    fp = frame[0];
  }
  s.depth = d;
}

void CopyMaps(FILE* out) {
  FILE* maps = std::fopen("/proc/self/maps", "r");
  if (maps == nullptr) return;
  char line[4096];
  while (std::fgets(line, sizeof line, maps) != nullptr) std::fputs(line, out);
  std::fclose(maps);
}

/// The main stack's range and the main executable's code range.
void ReadLayout() {
  char exe[4096] = {};
  FILE* maps = std::fopen("/proc/self/maps", "r");
  if (maps == nullptr) return;
  char line[4096];
  char path[4096];
  while (std::fgets(line, sizeof line, maps) != nullptr) {
    unsigned long lo = 0;
    unsigned long hi = 0;
    char perms[8] = {};
    path[0] = '\0';
    if (std::sscanf(line, "%lx-%lx %7s %*s %*s %*s %4095s", &lo, &hi, perms,
                    path) < 3) {
      continue;
    }
    if (std::strcmp(path, "[stack]") == 0) {
      g_stack_lo = lo;
      g_stack_hi = hi;
    }
    // The first file mapping is the main executable.
    if (exe[0] == '\0' && path[0] == '/') std::strcpy(exe, path);
    if (perms[2] == 'x' && std::strcmp(path, exe) == 0) {
      if (g_text_lo == 0 || lo < g_text_lo) g_text_lo = lo;
      if (hi > g_text_hi) g_text_hi = hi;
    }
  }
  std::fclose(maps);
}

__attribute__((constructor)) void Start() {
  if (const char* out = std::getenv("NLSS_SAMPLER_OUT")) g_out = out;
  void* buf = mmap(nullptr, kCapacity * sizeof(Sample),
                   PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (buf == MAP_FAILED) return;
  g_samples = static_cast<Sample*>(buf);
  ReadLayout();
  struct sigaction sa = {};
  sa.sa_sigaction = OnProf;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
  const itimerval every_ms = {{0, 1000}, {0, 1000}};
  setitimer(ITIMER_PROF, &every_ms, nullptr);
}

__attribute__((destructor)) void Stop() {
  if (g_samples == nullptr) return;
  const itimerval off = {};
  setitimer(ITIMER_PROF, &off, nullptr);
  signal(SIGPROF, SIG_IGN);
  FILE* out = std::fopen(g_out, "w");
  if (out == nullptr) return;
  const std::size_t taken = g_next.load();
  const std::size_t kept = taken < kCapacity ? taken : kCapacity;
  std::fprintf(out, "nlss-sampler 1\nhz 1000\nsamples %zu\ndropped %zu\n",
               kept, taken - kept);
  std::fputs("maps\n", out);
  CopyMaps(out);
  std::fputs("stacks\n", out);
  for (std::size_t i = 0; i < kept; ++i) {
    const Sample& s = g_samples[i];
    for (std::size_t d = 0; d < s.depth; ++d) {
      std::fprintf(out, d == 0 ? "%lx" : " %lx",
                   static_cast<unsigned long>(s.pc[d]));
    }
    std::fputc('\n', out);
  }
  std::fclose(out);
}

}  // namespace
