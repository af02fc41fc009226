#include "src/workload/session_trace.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "src/common/logging.h"

namespace sarathi {
namespace {

void AppendRandomTokens(std::vector<int32_t>* tokens, int64_t count, int32_t vocab_size,
                        Rng& rng) {
  for (int64_t i = 0; i < count; ++i) {
    tokens->push_back(static_cast<int32_t>(rng.UniformInt(0, vocab_size - 1)));
  }
}

void SortAndNumber(Trace* trace) {
  std::stable_sort(trace->requests.begin(), trace->requests.end(),
                   [](const Request& a, const Request& b) {
                     return a.arrival_time_s < b.arrival_time_s;
                   });
  for (size_t i = 0; i < trace->requests.size(); ++i) {
    trace->requests[i].id = static_cast<int64_t>(i);
  }
}

}  // namespace

Trace GenerateMultiTurnChatTrace(const MultiTurnChatOptions& options) {
  CHECK_GT(options.num_sessions, 0);
  CHECK_GE(options.continue_probability, 0.0);
  CHECK_LT(options.continue_probability, 1.0);
  CHECK_GE(options.system_prompt_tokens, 0);
  CHECK_GT(options.vocab_size, 0);
  Rng rng(options.seed);

  // One shared system-prompt stream: every session opens with these ids, so
  // the cache's root chain is hit by each new session after the first.
  std::vector<int32_t> system_prompt;
  AppendRandomTokens(&system_prompt, options.system_prompt_tokens, options.vocab_size, rng);

  Trace trace;
  trace.name = "multi_turn_chat";
  double session_start = 0.0;
  for (int64_t c = 0; c < options.num_sessions; ++c) {
    if (c > 0 && options.start_qps > 0.0) {
      session_start += rng.Exponential(options.start_qps);
    }
    double now = session_start;
    // The running token stream; each round's request snapshots it after
    // appending the fresh turn and the scripted reply.
    std::vector<int32_t> session = system_prompt;
    while (true) {
      int64_t turn = options.user_turn.Sample(rng);
      int64_t reply = options.reply.Sample(rng);
      int64_t prompt = static_cast<int64_t>(session.size()) + turn;
      if (prompt + reply > options.max_context) {
        break;
      }
      AppendRandomTokens(&session, turn, options.vocab_size, rng);
      AppendRandomTokens(&session, reply, options.vocab_size, rng);

      Request request;
      request.arrival_time_s = now;
      request.prompt_tokens = prompt;
      request.output_tokens = reply;
      request.token_ids = std::make_shared<const std::vector<int32_t>>(session);
      trace.requests.push_back(std::move(request));

      if (rng.Uniform(0.0, 1.0) >= options.continue_probability) {
        break;
      }
      // Next round arrives after the user reads the reply and types: think
      // time plus a crude per-token reading/serving allowance.
      double allowance = 0.02 * static_cast<double>(reply);
      now += allowance + rng.Exponential(1.0 / options.mean_think_time_s);
    }
  }

  SortAndNumber(&trace);
  return trace;
}

Trace GenerateAgentLoopTrace(const AgentLoopOptions& options) {
  CHECK_GT(options.num_agents, 0);
  CHECK_GE(options.min_steps, 1);
  CHECK_GE(options.max_steps, options.min_steps);
  CHECK_GE(options.toolkit_prompt_tokens, 0);
  CHECK_GT(options.vocab_size, 0);
  Rng rng(options.seed);

  std::vector<int32_t> toolkit;
  AppendRandomTokens(&toolkit, options.toolkit_prompt_tokens, options.vocab_size, rng);

  Trace trace;
  trace.name = "agent_loop";
  double task_start = 0.0;
  for (int64_t a = 0; a < options.num_agents; ++a) {
    if (a > 0 && options.start_qps > 0.0) {
      task_start += rng.Exponential(options.start_qps);
    }
    double now = task_start;
    int64_t steps = rng.UniformInt(options.min_steps, options.max_steps);
    // Scratchpad: preamble + task, then per step an observation and the
    // model's action; every step prompts with the whole scratchpad.
    std::vector<int32_t> scratchpad = toolkit;
    AppendRandomTokens(&scratchpad, options.task.Sample(rng), options.vocab_size, rng);
    for (int64_t s = 0; s < steps; ++s) {
      int64_t observation = s == 0 ? 0 : options.observation.Sample(rng);
      int64_t action = options.action.Sample(rng);
      int64_t prompt = static_cast<int64_t>(scratchpad.size()) + observation;
      if (prompt + action > options.max_context) {
        break;
      }
      AppendRandomTokens(&scratchpad, observation, options.vocab_size, rng);
      AppendRandomTokens(&scratchpad, action, options.vocab_size, rng);

      Request request;
      request.arrival_time_s = now;
      request.prompt_tokens = prompt;
      request.output_tokens = action;
      request.token_ids = std::make_shared<const std::vector<int32_t>>(scratchpad);
      trace.requests.push_back(std::move(request));

      // The next step arrives after the action streams back and the tool
      // runs; agent loops are near back-to-back compared to human turns.
      double allowance = 0.02 * static_cast<double>(action);
      now += allowance + rng.Exponential(1.0 / options.mean_step_gap_s);
    }
  }

  SortAndNumber(&trace);
  return trace;
}

}  // namespace sarathi
