// Hash partitioning of the URL space across crawl shards.
//
// The unit of ownership is the *server*, not the URL: every URL of one
// host maps to the same shard, so per-server state — circuit breaker,
// retry schedule, the politeness load signal — never needs to cross a
// shard boundary. This is the paper's partitioning (per-server
// assignment to crawler populations) applied to in-process shard groups.
#ifndef FOCUS_DIST_SHARD_ROUTER_H_
#define FOCUS_DIST_SHARD_ROUTER_H_

#include <cstdint>
#include <string_view>

#include "crawl/crawl_db.h"

namespace focus::dist {

class ShardRouter {
 public:
  explicit ShardRouter(int num_shards)
      : num_shards_(num_shards < 1 ? 1 : num_shards) {}

  int num_shards() const { return num_shards_; }

  // Owner shard of a server. The Fibonacci mix spreads the ServerIdOf
  // hashes evenly across shards.
  int ShardOfServer(int32_t sid) const {
    uint64_t h = static_cast<uint64_t>(static_cast<uint32_t>(sid)) *
                 UINT64_C(0x9E3779B97F4A7C15);
    return static_cast<int>((h >> 33) % static_cast<uint64_t>(num_shards_));
  }

  int ShardOfUrl(std::string_view url) const {
    return ShardOfServer(crawl::ServerIdOf(url));
  }

 private:
  int num_shards_;
};

}  // namespace focus::dist

#endif  // FOCUS_DIST_SHARD_ROUTER_H_
