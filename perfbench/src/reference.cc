#include "reference.hh"

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "workloads.hh"

namespace perfbench
{

namespace
{

constexpr std::uint32_t kAgents = 2048;
constexpr std::uint32_t kKeys = 8192;
constexpr int kEvents = 60000;

/** Keeps the kernel's result observable so it is not optimized away. */
volatile std::uint64_t sink = 0;

} // anonymous namespace

double
timeReference()
{
    using Event = std::pair<std::uint64_t, std::uint32_t>;
    const auto t0 = Clock::now();
    std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
    std::unordered_map<std::uint32_t, std::uint64_t> state;
    for (std::uint32_t id = 0; id < kAgents; ++id)
        queue.push({id, id});
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < kEvents; ++i) {
        const auto [when, id] = queue.top();
        queue.pop();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::uint64_t &v = state[id * 2654435761u % kKeys];
        v += when;
        if (v & 1)
            v ^= x;
        queue.push({when + 1 + x % 64, id});
    }
    sink = sink + state.size() + queue.top().first;
    return since(t0);
}

} // namespace perfbench
