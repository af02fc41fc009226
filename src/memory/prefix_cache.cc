#include "src/memory/prefix_cache.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "src/common/logging.h"
#include "src/obs/obs_hooks.h"

namespace sarathi {

namespace {

// FNV-1a over the chunk's token ids. Children are keyed by this hash and
// verified against the stored chunk on lookup, so a collision degrades to a
// miss, never to false sharing.
uint64_t HashChunk(const int32_t* tokens, int64_t count) {
  uint64_t hash = 1469598103934665603ULL;
  for (int64_t i = 0; i < count; ++i) {
    auto value = static_cast<uint32_t>(tokens[i]);
    for (int shift = 0; shift < 32; shift += 8) {
      hash ^= (value >> shift) & 0xffu;
      hash *= 1099511628211ULL;
    }
  }
  return hash;
}

void NotifyKv(ObsHooks* obs, KvVerifyEvent event, SeqId id) {
  if (obs != nullptr && obs->verify != nullptr) {
    obs->verify->OnKvEvent(event, id);
  }
}

}  // namespace

PrefixCachingAllocator::PrefixCachingAllocator(const Options& options)
    : PagedBlockManager(options) {
  CHECK_EQ(options.sliding_window, 0)
      << "prefix caching requires position-stable blocks; sliding-window "
         "models recycle block contents in place";
}

int64_t PrefixCachingAllocator::WatermarkBlocks() const {
  return static_cast<int64_t>(
      std::ceil(options_.watermark * static_cast<double>(options_.num_blocks)));
}

int64_t PrefixCachingAllocator::PinPrefix(
    SeqId id, std::shared_ptr<const std::vector<int32_t>> tokens, int64_t prompt_len) {
  CHECK(!pins_.contains(id)) << "sequence " << id << " already pinned";
  CHECK(!tables_.contains(id)) << "sequence " << id << " already admitted";
  CHECK(!seq_tokens_.contains(id)) << "sequence " << id << " already registered";
  ++stats_.lookups;
  if (tokens == nullptr || tokens->empty()) {
    return 0;
  }
  seq_tokens_.emplace(id, tokens);
  // Match whole blocks only, and never the entire prompt: at least one
  // prefill token must remain so the request still produces its first output
  // token through a forward pass.
  int64_t covered = std::min<int64_t>(prompt_len - 1, static_cast<int64_t>(tokens->size()));
  int64_t max_blocks = covered < 0 ? 0 : covered / options_.block_size;
  Pin pin;
  Node* node = &root_;
  for (int64_t d = 0; d < max_blocks; ++d) {
    const int32_t* chunk = tokens->data() + d * options_.block_size;
    uint64_t key = HashChunk(chunk, options_.block_size);
    auto it = node->children.find(key);
    if (it == node->children.end() ||
        !std::equal(chunk, chunk + options_.block_size, it->second->chunk.begin(),
                    it->second->chunk.end())) {
      break;
    }
    node = it->second.get();
    AddBlockRef(node->block);  // Pin: eviction-proof.
    ++node->pins;
    Touch(node);
    pin.nodes.push_back(node);
  }
  if (pin.nodes.empty()) {
    return 0;
  }
  ++stats_.hits;
  int64_t matched = static_cast<int64_t>(pin.nodes.size()) * options_.block_size;
  stats_.cached_tokens += matched;
  pins_.emplace(id, std::move(pin));
  return matched;
}

int64_t PrefixCachingAllocator::PinnedTokens(SeqId id) const {
  auto it = pins_.find(id);
  if (it == pins_.end()) {
    return 0;
  }
  return static_cast<int64_t>(it->second.nodes.size()) * options_.block_size;
}

void PrefixCachingAllocator::Touch(Node* node) {
  if (!IsEvictableLeaf(node)) {
    node->stamp = ++stamp_counter_;
    return;
  }
  // The fresh stamp is the largest, so the node re-enters at the tail.
  auto entry = evictable_leaves_.extract(node->stamp);
  node->stamp = entry.key() = ++stamp_counter_;
  evictable_leaves_.insert(evictable_leaves_.end(), std::move(entry));
}

void PrefixCachingAllocator::OnSoleReferenceChanged(int64_t block, bool sole) {
  Node* node = NodeOf(block);
  if (node == nullptr) {
    return;  // Not cached: only the index's own blocks are reclaimable.
  }
  // Refcount 1 means only the index holds the block. Any sequence or pin
  // referencing a node also references its ancestors, so refcount-1 subtrees
  // contain no shared blocks and every refcount-1 node is reclaimable.
  if (sole) {
    ++sole_ref_nodes_;
    if (node->children.empty()) {
      evictable_leaves_.emplace(node->stamp, node);
    }
  } else {
    --sole_ref_nodes_;
    if (node->children.empty()) {
      evictable_leaves_.erase(node->stamp);
    }
  }
}

bool PrefixCachingAllocator::EvictOne() {
  // LRU over reclaimable leaves. A refcount-1 interior node only becomes a
  // leaf after its (also refcount-1) descendants go, so chains a live
  // sequence still maps are never broken. Stamps are unique, so the set's
  // minimum is the one least-recently-touched evictable leaf.
  if (evictable_leaves_.empty()) {
    return false;
  }
  Node* victim = evictable_leaves_.begin()->second;
  evictable_leaves_.erase(evictable_leaves_.begin());
  --sole_ref_nodes_;
  node_of_block_[static_cast<size_t>(victim->block)] = nullptr;
  ReleaseBlockRef(victim->block);  // Refcount 1 -> 0: back on the free list.
  --cached_count_;
  ++stats_.evictions;
  Node* parent = victim->parent;
  parent->children.erase(victim->key);
  if (parent != &root_ && IsEvictableLeaf(parent)) {
    evictable_leaves_.emplace(parent->stamp, parent);  // Keeps its older stamp.
  }
  EmitKvObs("kv_prefix_evict", -1);
  return true;
}

bool PrefixCachingAllocator::CanAdmit(int64_t prompt_len, int64_t /*max_total_len*/) const {
  int64_t needed = BlocksForTokens(prompt_len);
  return needed + WatermarkBlocks() - free_blocks() <= evictable_blocks();
}

bool PrefixCachingAllocator::CanAdmitSeq(SeqId id, int64_t prompt_len,
                                         int64_t /*max_total_len*/) const {
  // Pinned blocks transplant into the table without allocation; only the
  // uncached remainder needs free (or evictable) blocks.
  auto it = pins_.find(id);
  int64_t pinned = it == pins_.end() ? 0 : static_cast<int64_t>(it->second.nodes.size());
  int64_t fresh = BlocksForTokens(prompt_len) - pinned;
  return fresh + WatermarkBlocks() - free_blocks() <= evictable_blocks();
}

void PrefixCachingAllocator::Admit(SeqId id, int64_t prompt_len, int64_t max_total_len) {
  CHECK(!tables_.contains(id)) << "sequence " << id << " already admitted";
  CHECK(CanAdmitSeq(id, prompt_len, max_total_len));
  std::vector<Node*> matched;
  auto pin_it = pins_.find(id);
  if (pin_it != pins_.end()) {
    matched = std::move(pin_it->second.nodes);
    pins_.erase(pin_it);
  }
  int64_t needed = BlocksForTokens(prompt_len);
  int64_t fresh = needed - static_cast<int64_t>(matched.size());
  CHECK_GE(fresh, 1) << "a match must leave at least one uncached prompt block";
  while (free_blocks() < fresh + WatermarkBlocks() && EvictOne()) {
  }
  CHECK_GE(free_blocks(), fresh) << "admitted past capacity";
  SequenceState state;
  state.blocks.reserve(
      static_cast<size_t>(std::max(needed, BlocksForTokens(max_total_len))));
  // The pin's extra reference becomes the table's reference: no net change.
  for (Node* node : matched) {
    --node->pins;
    state.blocks.push_back(node->block);
  }
  for (int64_t i = 0; i < fresh; ++i) {
    state.blocks.push_back(AllocateBlock());
  }
  state.num_tokens = prompt_len;
  tables_.emplace(id, std::move(state));
  NotifyKv(obs_, KvVerifyEvent::kAdmit, id);
  EmitKvObs("kv_admit", id);
}

bool PrefixCachingAllocator::CanAppendToken(SeqId id) const {
  // Decode allocation must never starve behind retained cache: when the base
  // answer is no (no free block for growth or copy-on-write), one eviction
  // frees one.
  return PagedBlockManager::CanAppendToken(id) || evictable_blocks() > 0;
}

void PrefixCachingAllocator::AppendToken(SeqId id) {
  if (free_blocks() == 0) {
    const SequenceState& state = FindState(id);
    bool needs_block =
        BlocksForTokens(state.num_tokens + 1) > static_cast<int64_t>(state.blocks.size());
    if (!needs_block) {
      int64_t block = state.blocks[static_cast<size_t>(BlockIndexFor(state.num_tokens))];
      needs_block = refcount_[static_cast<size_t>(block)] > 1;  // Copy-on-write.
    }
    if (needs_block) {
      CHECK(EvictOne()) << "AppendToken without a free or evictable block";
    }
  }
  PagedBlockManager::AppendToken(id);
}

void PrefixCachingAllocator::ReleaseFinished(SeqId id) {
  auto tok_it = seq_tokens_.find(id);
  if (tok_it != seq_tokens_.end() && tok_it->second != nullptr) {
    const std::vector<int32_t>& tokens = *tok_it->second;
    const SequenceState& state = FindState(id);
    // Retain the chain of full blocks whose token ids are known. Position p's
    // KV corresponds to tokens[p] even across preemption-recompute (the
    // regenerated tokens are the same), so the chain stays content-addressed.
    int64_t covered = std::min(state.num_tokens, static_cast<int64_t>(tokens.size()));
    int64_t retain = covered / options_.block_size;
    Node* node = &root_;
    // Set once the walk dedups onto an equal-content chain held in *other*
    // physical blocks (a coincidental content match, or a recompute that
    // re-produced an already-cached prefix in fresh blocks). Inserting this
    // sequence's own blocks under such a node would break the eviction
    // ordering invariant: a fork sibling can still reference our later
    // blocks without referencing the foreign ancestor, leaving a child node
    // with a higher refcount than its parent.
    bool foreign_chain = false;
    for (int64_t d = 0; d < retain; ++d) {
      const int32_t* chunk = tokens.data() + d * options_.block_size;
      uint64_t key = HashChunk(chunk, options_.block_size);
      auto it = node->children.find(key);
      if (it != node->children.end()) {
        if (!std::equal(chunk, chunk + options_.block_size, it->second->chunk.begin(),
                        it->second->chunk.end())) {
          break;  // Hash collision: cannot chain past it, stop retaining.
        }
        node = it->second.get();  // Dedup: an equal chain already cached.
        if (node->block != state.blocks[static_cast<size_t>(d)]) foreign_chain = true;
        Touch(node);
        continue;
      }
      if (foreign_chain) {
        break;  // Only extend chains whose ancestors are our own blocks.
      }
      auto child = std::make_unique<Node>();
      child->parent = node;
      child->key = key;
      child->block = state.blocks[static_cast<size_t>(d)];
      child->chunk.assign(chunk, chunk + options_.block_size);
      // The index's reference. This sequence's table still holds both the
      // new node's block and its parent's (the walk only extends our own
      // chain), so neither is refcount-1: the eviction index needs no update
      // until the Release below drops the table's references.
      AddBlockRef(child->block);
      Touch(child.get());
      ++cached_count_;
      ++stats_.retained_blocks;
      stats_.peak_cached_blocks = std::max(stats_.peak_cached_blocks, cached_count_);
      Node* inserted = child.get();
      auto slot = static_cast<size_t>(inserted->block);
      if (slot >= node_of_block_.size()) {
        node_of_block_.resize(slot + 1, nullptr);  // Grows toward the high-water mark.
      }
      node_of_block_[slot] = inserted;
      node->children.emplace(key, std::move(child));
      node = inserted;
    }
  }
  if (tok_it != seq_tokens_.end()) {
    seq_tokens_.erase(tok_it);
  }
  Release(id);
  EmitKvObs(nullptr, id);  // Counter refresh after retention kept blocks used.
}

void PrefixCachingAllocator::OnRequestDropped(SeqId id) {
  auto it = pins_.find(id);
  if (it != pins_.end()) {
    // The index still holds its own reference, so the count never reaches 0.
    for (Node* node : it->second.nodes) {
      --node->pins;
      ReleaseBlockRef(node->block);
    }
    pins_.erase(it);
  }
  seq_tokens_.erase(id);
}

int64_t PrefixCachingAllocator::DrainCache() {
  CHECK(pins_.empty()) << pins_.size() << " prefix pins outstanding at drain";
  int64_t before_evictions = stats_.evictions;
  int64_t released = 0;
  while (EvictOne()) {
    ++released;
  }
  stats_.evictions = before_evictions;  // Drain is not allocation pressure.
  return released;
}

std::string PrefixCachingAllocator::AuditInvariants() const {
  // Expected refcount of every block: table references plus one per index
  // node plus one per pinned node. Mirrors the base audit with the two cache
  // reference sources added.
  std::vector<int32_t> expected;
  if (std::string audit = CountTableRefs(expected); !audit.empty()) {
    return audit;
  }
  std::ostringstream out;
  if (node_of_block_.size() > expected.size()) {
    out << "block -> node table spans " << node_of_block_.size()
        << " ids, beyond the high-water mark " << expected.size();
    return out.str();
  }
  std::vector<int32_t> pinned(expected.size(), 0);
  for (const auto& [id, pin] : pins_) {
    for (const Node* node : pin.nodes) {
      if (std::string bad = CheckBlockId(node->block); !bad.empty()) {
        out << "seq " << id << ": pinned " << bad;
        return out.str();
      }
      ++expected[static_cast<size_t>(node->block)];
      ++pinned[static_cast<size_t>(node->block)];
    }
  }
  // The index's own references are read off the block -> node table, which
  // AuditCache checks against the trie (every node, and nothing else, mapped).
  for (size_t i = 0; i < expected.size(); ++i) {
    const Node* node = NodeOf(static_cast<int64_t>(i));
    if (node != nullptr) {
      if (node->block != static_cast<int64_t>(i)) {
        std::string bad = CheckBlockId(node->block);
        out << "block -> node table maps block " << i << " to the node of "
            << (bad.empty() ? "block " + std::to_string(node->block) : bad);
        return out.str();
      }
      ++expected[i];
    }
    // The per-node pin counts back CacheRefs, which the checker's per-batch
    // audit trusts; recount them from the pins themselves.
    if ((node == nullptr ? 0 : node->pins) != pinned[i]) {
      out << "block " << i << ": node counts " << (node == nullptr ? 0 : node->pins)
          << " pins but " << pinned[i] << " pins hold it";
      return out.str();
    }
  }
  return AuditRefcounts(expected, "references (tables + index + pins)");
}

int32_t PrefixCachingAllocator::CacheRefs(int64_t block) const {
  const Node* node = NodeOf(block);
  return node == nullptr ? 0 : 1 + node->pins;
}

std::string PrefixCachingAllocator::AuditCache() const {
  std::ostringstream out;
  // Structure: every cached block referenced at least once beyond the free
  // list (the index's own reference), chunk arithmetic intact, and chains
  // unbroken — a child's block may never outlive its parent's, which
  // leaf-first eviction guarantees by construction and this audit re-checks.
  // The same walk recounts the eviction index: refcount-1 nodes, evictable
  // leaves, and the block -> node table entry of every node.
  int64_t nodes = 0;
  int64_t sole_ref = 0;
  int64_t evictable_leaves = 0;
  std::vector<const Node*> stack{&root_};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    for (const auto& [key, child] : node->children) {
      ++nodes;
      if (std::string bad = CheckBlockId(child->block); !bad.empty()) {
        return "cached node holds " + bad;
      }
      if (NodeOf(child->block) != child.get()) {
        out << "block -> node table does not map cached block " << child->block
            << " to its node (missing, or the block is cached twice)";
        return out.str();
      }
      if (refcount_[static_cast<size_t>(child->block)] == 1) {
        ++sole_ref;
        evictable_leaves += child->children.empty() ? 1 : 0;
      }
      if (child->parent != node || child->key != key) {
        out << "cached node for block " << child->block << " has a broken parent link";
        return out.str();
      }
      if (static_cast<int64_t>(child->chunk.size()) != options_.block_size) {
        out << "cached node for block " << child->block << " covers "
            << child->chunk.size() << " tokens, want " << options_.block_size;
        return out.str();
      }
      if (refcount_[static_cast<size_t>(child->block)] < 1) {
        out << "cached block " << child->block << " has refcount "
            << refcount_[static_cast<size_t>(child->block)] << " (evicted while mapped)";
        return out.str();
      }
      if (node != &root_ &&
          refcount_[static_cast<size_t>(node->block)] <
              refcount_[static_cast<size_t>(child->block)]) {
        out << "cached block " << child->block << " (refcount "
            << refcount_[static_cast<size_t>(child->block)] << ") outranks its parent "
            << node->block << " (refcount " << refcount_[static_cast<size_t>(node->block)]
            << "): a chain reference is missing its ancestors";
        return out.str();
      }
      stack.push_back(child.get());
    }
  }
  if (nodes != cached_count_) {
    out << "index holds " << nodes << " nodes but cached_count_ says " << cached_count_;
    return out.str();
  }
  if (sole_ref != sole_ref_nodes_) {
    out << sole_ref << " cached nodes have refcount 1 but the eviction index counts "
        << sole_ref_nodes_;
    return out.str();
  }
  auto mapped = static_cast<int64_t>(
      std::count_if(node_of_block_.begin(), node_of_block_.end(),
                    [](const Node* node) { return node != nullptr; }));
  if (mapped != nodes) {
    out << "block -> node table maps " << mapped << " blocks but the index caches " << nodes;
    return out.str();
  }
  // Every set entry is a live evictable leaf under its own stamp; with the
  // size equal to the recount, the set holds exactly the evictable leaves.
  for (const auto& [stamp, node] : evictable_leaves_) {
    if (NodeOf(node->block) != node) {
      out << "eviction set holds a node for block " << node->block
          << " that the index no longer caches";
      return out.str();
    }
    if (node->stamp != stamp) {
      out << "eviction set keys block " << node->block << " by stamp " << stamp
          << " but its stamp is " << node->stamp;
      return out.str();
    }
    if (!IsEvictableLeaf(node)) {
      out << "eviction set holds block " << node->block << " (refcount "
          << refcount_[static_cast<size_t>(node->block)] << ", "
          << node->children.size() << " children), which is not an evictable leaf";
      return out.str();
    }
  }
  if (static_cast<int64_t>(evictable_leaves_.size()) != evictable_leaves) {
    out << "eviction set holds " << evictable_leaves_.size() << " leaves but "
        << evictable_leaves << " cached leaves have refcount 1";
    return out.str();
  }
  for (const auto& [id, pin] : pins_) {
    if (pin.nodes.empty()) {
      out << "seq " << id << ": empty pin registered";
      return out.str();
    }
    for (const Node* node : pin.nodes) {
      if (refcount_[static_cast<size_t>(node->block)] < 2) {
        out << "seq " << id << ": pinned block " << node->block
            << " has refcount < 2 (pin reference lost)";
        return out.str();
      }
    }
  }
  return "";
}

}  // namespace sarathi
