#include "speed.h"

#include <signal.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

namespace vbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Heap steps in one timed pass of the kernel: about 2.5 ms.
constexpr std::uint32_t kPassSteps = 10000;
/// One pass's time on the reference machine, the 4-core VM of the
/// README's figures in its fast state. Normalized times are seconds at
/// this speed.
constexpr double kReferencePassS = 0.0020;
/// Sampling period while a round runs.
constexpr long kSampleIntervalNs = 100'000'000;
/// Room for about 27 minutes of sampling; a full log stops sampling
/// and end_round() throws.
constexpr std::size_t kMaxSamples = std::size_t{1} << 14;

/// The kernel's state: a 4 MB table and a 32,768-event heap, allocated
/// before any timer is armed, so the signal handler allocates nothing.
/// The table is twice the L2 of the reference machine, so the kernel
/// runs out of the shared L3, as the simulator does; a kernel that fits
/// in L2 misses most of the host's slowdowns.
struct Kernel {
  std::vector<std::uint64_t> table =
      std::vector<std::uint64_t>(std::size_t{1} << 19);
  std::vector<std::pair<std::uint64_t, std::uint32_t>> heap =
      std::vector<std::pair<std::uint64_t, std::uint32_t>>(std::size_t{1}
                                                           << 15);
  std::uint64_t sink = 0;
};

std::unique_ptr<Kernel> g_kernel;

/// One pass of the reference kernel: a fixed discrete-event loop of the
/// simulator's shape. A reset (untimed) refills the table and heap, so
/// the timed part starts from the same cache state whatever the program
/// left there. Each timed step pops the earliest event, makes a random
/// read-modify-write in the table and a floating-point update, and
/// pushes the event back later. The work never changes.
double kernel_pass(Kernel& k) {
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  const auto next = [&x] {
    std::uint64_t z = (x += 0x9E3779B97F4A7C15ull);  // splitmix64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  for (std::size_t i = 0; i < k.table.size(); ++i) k.table[i] = i;
  for (std::size_t i = 0; i < k.heap.size(); ++i) {
    k.heap[i] = {next() >> 40, static_cast<std::uint32_t>(i)};
  }
  std::make_heap(k.heap.begin(), k.heap.end(), std::greater<>());
  const std::size_t mask = k.table.size() - 1;
  double rate = 1.0;
  const auto start = Clock::now();
  for (std::uint32_t step = 0; step < kPassSteps; ++step) {
    std::pop_heap(k.heap.begin(), k.heap.end(), std::greater<>());
    const auto e = k.heap.back();
    std::uint64_t& slot =
        k.table[(e.first * 0x9E3779B97F4A7C15ull ^ e.second) & mask];
    slot = slot * 31 + e.first;
    rate = rate * 0.999 + static_cast<double>(slot & 0xff) * 1e-3;
    k.heap.back() = {e.first + 1 + (slot & 0xffff), e.second};
    std::push_heap(k.heap.begin(), k.heap.end(), std::greater<>());
  }
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  k.sink ^= k.table[x & mask] + static_cast<std::uint64_t>(rate);
  return seconds;
}

struct Sample {
  Clock::time_point start;  // handler entry
  Clock::time_point end;    // handler exit
  double pass_s;            // the timed pass alone
};

Sample g_samples[kMaxSamples];
std::atomic<std::size_t> g_sample_count{0};
volatile sig_atomic_t g_armed = 0;

/// Appends one sample. Runs on the measuring thread, from the handler
/// or with the signal blocked, so two never overlap.
void take_sample() {
  const std::size_t n = g_sample_count.load(std::memory_order_relaxed);
  if (n >= kMaxSamples) return;
  Sample& s = g_samples[n];
  s.start = Clock::now();
  s.pass_s = kernel_pass(*g_kernel);
  s.end = Clock::now();
  g_sample_count.store(n + 1, std::memory_order_release);
}

void on_tick(int /*signo*/) {
  if (g_armed == 0) return;
  const int saved_errno = errno;
  take_sample();
  errno = saved_errno;
}

timer_t g_timer{};
struct sigaction g_previous {};

void set_timer(long interval_ns) {
  itimerspec spec{};
  spec.it_interval.tv_nsec = interval_ns;
  spec.it_value.tv_nsec = interval_ns;
  if (timer_settime(g_timer, 0, &spec, nullptr) != 0) {
    throw std::runtime_error(std::string("timer_settime: ") +
                             std::strerror(errno));
  }
}

/// Blocks SIGALRM on this thread for its lifetime.
class BlockTick {
 public:
  BlockTick() {
    sigset_t set;
    sigemptyset(&set);
    sigaddset(&set, SIGALRM);
    pthread_sigmask(SIG_BLOCK, &set, &saved_);
  }
  ~BlockTick() { pthread_sigmask(SIG_SETMASK, &saved_, nullptr); }
  BlockTick(const BlockTick&) = delete;
  BlockTick& operator=(const BlockTick&) = delete;

 private:
  sigset_t saved_{};
};

double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

}  // namespace

SpeedSampler::SpeedSampler() {
  g_kernel = std::make_unique<Kernel>();
  g_sample_count.store(0);
  (void)kernel_pass(*g_kernel);  // first touch of the kernel's pages
  struct sigaction action {};
  action.sa_handler = on_tick;
  action.sa_flags = SA_RESTART;
  sigemptyset(&action.sa_mask);
  if (sigaction(SIGALRM, &action, &g_previous) != 0) {
    throw std::runtime_error(std::string("sigaction: ") +
                             std::strerror(errno));
  }
  // The signal goes to this thread alone, whatever threads the program
  // may start.
  sigevent event{};
  event.sigev_notify = SIGEV_THREAD_ID;
  event.sigev_signo = SIGALRM;
  event._sigev_un._tid = gettid();
  if (timer_create(CLOCK_MONOTONIC, &event, &g_timer) != 0) {
    const int error = errno;
    sigaction(SIGALRM, &g_previous, nullptr);
    throw std::runtime_error(std::string("timer_create: ") +
                             std::strerror(error));
  }
}

SpeedSampler::~SpeedSampler() {
  g_armed = 0;
  timer_delete(g_timer);
  sigaction(SIGALRM, &g_previous, nullptr);
  g_kernel.reset();
}

void SpeedSampler::begin_round() {
  const BlockTick block;
  first_ = g_sample_count.load();
  take_sample();
  g_armed = 1;
  set_timer(kSampleIntervalNs);
}

RoundTime SpeedSampler::end_round() {
  std::size_t last = 0;
  {
    const BlockTick block;
    g_armed = 0;
    set_timer(0);
    take_sample();
    last = g_sample_count.load(std::memory_order_acquire);
  }
  if (last >= kMaxSamples || last < first_ + 2) {
    throw std::runtime_error("speed sampler: sample log full");
  }
  RoundTime round;
  round.samples = last - first_;
  double units = 0;
  double pass_total = 0;
  for (std::size_t j = first_; j + 1 < last; ++j) {
    const Sample& a = g_samples[j];
    const Sample& b = g_samples[j + 1];
    const double program_s = seconds(b.start - a.end);
    round.raw_s += program_s;
    units += program_s / (0.5 * (a.pass_s + b.pass_s));
  }
  for (std::size_t j = first_; j < last; ++j) {
    pass_total += g_samples[j].pass_s;
  }
  round.normalized_s = units * kReferencePassS;
  round.mean_pass_s = pass_total / static_cast<double>(round.samples);
  return round;
}

double SpeedSampler::normalize_now(double seconds_measured) const {
  double passes[5];
  for (double& p : passes) p = kernel_pass(*g_kernel);
  std::sort(std::begin(passes), std::end(passes));
  return seconds_measured * kReferencePassS / passes[2];
}

}  // namespace vbench
