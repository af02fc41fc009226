// Session workloads: multi-round prompt growth with token identity.
//
// Each round is a separate request whose prompt carries the accumulated
// history — the source of openchat_sharegpt4's high prompt-length variance
// (paper §5). Every request carries Request::token_ids (prompt ids followed
// by the scripted reply ids), and each round's prompt embeds the previous
// round verbatim — exactly the structure a radix prefix cache exploits
// (SGLang-style RadixAttention). With system_prompt_tokens = 0 the chat
// trace is the plain conversation workload of the CLI and cluster bench.
//
// Two session shapes:
//  - Multi-turn chat: a shared system prompt, then rounds of
//    user turn -> assistant reply with think-time gaps. Round r+1's prompt
//    is round r's full token stream plus a fresh turn, so the cacheable
//    prefix grows with the conversation and the system prompt is shared
//    across every session.
//  - Agent loop: a shared toolkit preamble, then tool-call steps in tight
//    succession. Each step's prompt is the whole scratchpad (preamble +
//    every prior action and observation); steps are near back-to-back, so
//    hit rates are high and the reuse window short — the agentic pattern
//    that motivates prefix caching in the first place.
//
// All draws come from one seeded Rng, so traces are bit-reproducible and a
// given (options, seed) pair always produces identical token streams.

#ifndef SRC_WORKLOAD_SESSION_TRACE_H_
#define SRC_WORKLOAD_SESSION_TRACE_H_

#include <cstdint>

#include "src/workload/dataset.h"
#include "src/workload/trace.h"

namespace sarathi {

struct MultiTurnChatOptions {
  int64_t num_sessions = 64;
  // Session starts per second (Poisson).
  double start_qps = 0.25;
  // Probability a session continues after each round (geometric; mean
  // rounds = 1 / (1 - p)).
  double continue_probability = 0.7;
  // Tokens of the system prompt shared verbatim by every session; 0 disables
  // cross-session sharing (each session still reuses its own history).
  int64_t system_prompt_tokens = 512;
  // Fresh user-turn and assistant-reply token counts per round.
  LengthDistribution user_turn{120.0, 600.0};
  LengthDistribution reply{415.0, 834.0};
  // Gap between receiving a reply and sending the next turn, exponential
  // with this mean.
  double mean_think_time_s = 30.0;
  // Rounds stop once prompt + reply would exceed this.
  int64_t max_context = 8192;
  // Token ids are drawn uniformly from [0, vocab_size).
  int32_t vocab_size = 32000;
  uint64_t seed = 42;
};

// Flattens chat sessions into a trace sorted by arrival, with sequential ids
// and per-request token identity. Follow-up rounds repeat the prior round's
// prompt + reply token-for-token.
Trace GenerateMultiTurnChatTrace(const MultiTurnChatOptions& options);

struct AgentLoopOptions {
  int64_t num_agents = 32;
  // Agent-task starts per second (Poisson).
  double start_qps = 0.5;
  // Tool-call steps per task, uniform in [min_steps, max_steps].
  int64_t min_steps = 3;
  int64_t max_steps = 10;
  // Tokens of the toolkit/instructions preamble shared by every agent.
  int64_t toolkit_prompt_tokens = 1024;
  // Task statement appended once per agent after the preamble.
  LengthDistribution task{200.0, 700.0};
  // Tool observation appended to the scratchpad before each step's prompt.
  LengthDistribution observation{150.0, 900.0};
  // Action (model output) tokens per step.
  LengthDistribution action{48.0, 128.0};
  // Gap between a step's reply and the next step's arrival (tool latency),
  // exponential with this mean — much tighter than human think time.
  double mean_step_gap_s = 2.0;
  // Steps stop once prompt + action would exceed this.
  int64_t max_context = 16384;
  int32_t vocab_size = 32000;
  uint64_t seed = 42;
};

// Flattens agent tasks into a trace sorted by arrival, with sequential ids
// and per-request token identity. Every step's prompt is the whole
// scratchpad so far, so within a task each step extends the previous one.
Trace GenerateAgentLoopTrace(const AgentLoopOptions& options);

}  // namespace sarathi

#endif  // SRC_WORKLOAD_SESSION_TRACE_H_
