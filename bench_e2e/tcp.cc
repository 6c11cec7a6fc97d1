// tcp_short and tcp_mixed: open-loop load against a real exsample_serve
// child (--listen 0 --shards 1 --threads 2) over TCP.
//
// Short sessions arrive as a seeded Poisson process, in blocks of the four
// short query types shuffled per block, spread over 2 connections. Each is
// polled every 1 ms from its open until done, then closed. Every latency is
// measured from the open's due time, so a stalled server also delays what
// was scheduled behind the stall. A generator thread never waits on a reply
// before a scheduled send: it reads replies with a deadline of its next
// send. --shards 1, because SO_REUSEPORT assigns connections to shards by
// hash, which would vary from run to run.
//
// tcp_short climbs a rate ladder (150/300/600/1200 sessions/s) to find the
// highest rate within the latency SLO; its end-to-end metrics come from the
// 150/s rung. A session is 50-500 frames over 36-60 chunks, so transport,
// JSON, open/close and scheduler rounds do nearly all the work. tcp_mixed
// holds 150/s while a third connection keeps 2 long tracker sessions
// (pipelined, thousands of results each) open back to back: the same layers
// with long slices and result-heavy polls next to tiny ones, and the place
// where head-of-line blocking shows.

#include <sched.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "child.h"
#include "decompose.h"
#include "net/client.h"
#include "serve/protocol_handler.h"
#include "serve/session_manager.h"
#include "serve/stats_cache.h"
#include "util/rng.h"
#include "workloads.h"

namespace exsample {
namespace e2e {
namespace {

constexpr int64_t kMs = 1000000;
constexpr double kShortScale = 0.05;
constexpr int64_t kShortPollNs = 1 * kMs;
constexpr int64_t kLongPollNs = 10 * kMs;
constexpr int kShortConnections = 2;
constexpr int kLongSessionsOpen = 2;
constexpr double kSloMs = 25.0;
/// Long sessions whose results the replay compares (the rest are only
/// opened, to keep the session ids aligned).
constexpr int64_t kLongChecked = 4;
/// Polls one connection keeps in flight at most. Opens are never held
/// back; only polls wait, so an overloaded server (the ladder's top rung)
/// cannot fill the socket with polls and stall the sends behind them.
constexpr size_t kMaxPollsInFlight = 64;
/// Server starts measured for set-up time (the last one stays up).
constexpr int kSetUps = 5;
/// Traced runs keep spans for about this many decomposed short sessions.
constexpr int64_t kTracedShortSessions = 500;
/// Sessions the in-process protocol replay drives (a prefix by id).
constexpr size_t kProtocolReplaySessions = 400;

struct ShortType {
  const char* preset;
  const char* class_name;
  int64_t limit;
};
constexpr ShortType kShortMix[] = {{"dashcam", "bicycle", 10},
                                   {"bdd1k", "motor", 10},
                                   {"night_street", "person", 20},
                                   {"archie", "car", 50}};

OpenShape ShortShape(const ShortType& type, int64_t limit) {
  OpenShape shape;
  shape.preset = type.preset;
  shape.scale = kShortScale;
  shape.class_name = type.class_name;
  shape.limit = limit;
  return shape;
}

OpenShape LongShape() {
  OpenShape shape;
  shape.preset = "archie";
  shape.scale = 0.3;
  shape.class_name = "car";
  shape.budget_seconds = 300.0;
  shape.tracker = true;
  shape.pipeline_depth = 4;
  shape.detect_batch = 8;
  return shape;
}

Json OpenRequest(const OpenShape& shape) {
  Json open = Json::Object()
                  .Set("cmd", "open")
                  .Set("preset", shape.preset)
                  .Set("scale", shape.scale)
                  .Set("class", shape.class_name);
  if (shape.limit > 0) open.Set("limit", shape.limit);
  if (shape.budget_seconds > 0.0) {
    open.Set("budget_seconds", shape.budget_seconds);
  }
  if (shape.tracker) open.Set("tracker", true);
  if (shape.pipeline_depth > 0) {
    open.Set("pipeline_depth", shape.pipeline_depth)
        .Set("detect_batch", shape.detect_batch);
  }
  return open;
}

Json SessionRequest(const char* cmd, int64_t id) {
  return Json::Object().Set("cmd", cmd).Set("session", id);
}

void SleepUntil(int64_t deadline_ns) {
  const timespec until{static_cast<time_t>(deadline_ns / 1000000000),
                       static_cast<long>(deadline_ns % 1000000000)};
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &until, nullptr) ==
         EINTR) {
  }
}

/// Asks for a 100 us time slice for the calling generator thread. The
/// server shares this host's cores; while it is CPU-bound (the long tracker
/// sessions) a generator thread waking for its next send would otherwise
/// wait up to a default slice (milliseconds) for a core, and the open-loop
/// schedule would slip. A shorter slice lets the waking thread preempt
/// (EEVDF, Linux 6.12+). It needs no privilege and leaves the server's
/// scheduling alone; where the kernel ignores or refuses it, the lateness
/// check still guards the schedule.
void ShortenTimeSlice() {
  struct {
    uint32_t size;
    uint32_t policy;
    uint64_t flags;
    int32_t nice;
    uint32_t priority;
    uint64_t runtime;
    uint64_t deadline;
    uint64_t period;
  } attr{};
  attr.size = sizeof(attr);
  attr.policy = SCHED_OTHER;
  attr.runtime = 100000;
  syscall(SYS_sched_setattr, 0, &attr, 0);
}

/// What one session's poll replies add up to.
struct Progress {
  Fingerprint fingerprint;
  int64_t results = 0;
  int64_t frames = 0;
  double cost_seconds = 0.0;
  double server_ttfr_seconds = -1.0;
  bool done = false;
  std::string stop_reason;

  /// Folds one successful poll reply in.
  void Apply(const Json& reply) {
    if (const Json* items = reply.Find("new_results")) {
      for (const Json& d : items->items()) {
        fingerprint.Add(d.GetInt("frame", 0), d.GetDouble("score", 0.0),
                        d.GetDouble("x", 0.0), d.GetDouble("y", 0.0),
                        d.GetDouble("w", 0.0), d.GetDouble("h", 0.0));
      }
    }
    results = reply.GetInt("total_results", 0);
    frames = reply.GetInt("frames_processed", 0);
    cost_seconds = reply.GetDouble("cost_seconds", 0.0);
    server_ttfr_seconds = reply.GetDouble("seconds_to_first_result", -1.0);
    if (reply.GetString("state", "") != "running") {
      done = true;
      stop_reason = reply.GetString("stop_reason", "");
    }
  }
};

enum class Kind { kWarmup, kShort, kLong };

struct Session {
  Kind kind = Kind::kShort;
  OpenShape shape;
  /// Index into the phase list; -1 = the generator's warm-up phase.
  int phase = -1;
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t id = -1;
  /// Span sink: set in traced runs for the headline phase's sessions, so
  /// the client-side layer numbers describe the same load as the
  /// end-to-end ones.
  Tracer* tracer = nullptr;
  int64_t root_span = -1;
  bool outstanding = false;
  bool close_sent = false;
  bool closed = false;
  int64_t next_poll_ns = 0;
  /// Offset of the first poll after the open (short sessions): drawn
  /// uniformly from (0, 1 ms] so the 1 ms poll grid adds smooth noise to a
  /// session's observed times instead of rounding them all up to the same
  /// grid step.
  int64_t poll_phase_ns = kShortPollNs;
  int64_t ttfr_ns = -1;
  int64_t ttk_ns = -1;
  int64_t requests = 0;
  int64_t failed_requests = 0;
  /// The first failed request's reply (or transport error).
  std::string failure;
  int64_t polls = 0;
  int64_t poll_reply_bytes = 0;
  Progress progress;
};

void AddSpan(Tracer* tracer, const char* name, int64_t start, int64_t end,
             int64_t parent, int64_t query) {
  if (tracer == nullptr) return;
  tracer->Add(Span{name, start, end, tracer->NewId(), parent, query});
}

/// The session's root span, from its due time to `end_ns`, under the id its
/// children already name as parent.
void AddSessionSpan(const Session& s, int64_t end_ns) {
  if (s.tracer == nullptr) return;
  s.tracer->Add(Span{"session", s.due_ns, end_ns, s.root_span, -1, s.id});
}

/// One blocking exchange on `client`, timed as a "net.call" span.
bool Call(net::Client* client, const Json& request, Session* s, Json* reply) {
  ++s->requests;
  const int64_t start = NowNs();
  auto response = client->Call(request);
  AddSpan(s->tracer, "net.call", start, NowNs(), s->root_span, s->id);
  if (!response.ok() || !response.value().GetBool("ok", false)) {
    if (s->failed_requests++ == 0) {
      s->failure = response.ok() ? response.value().Dump()
                                 : response.status().ToString();
    }
    return false;
  }
  *reply = std::move(response).value();
  return true;
}

// Blocking session steps over a net::Client (set-up warm-ups and the long
// sessions' connection).
bool OpenBlocking(net::Client* client, Session* s, int64_t interval_ns) {
  if (s->tracer != nullptr) s->root_span = s->tracer->NewId();
  s->sent_ns = NowNs();
  Json reply;
  if (!Call(client, OpenRequest(s->shape), s, &reply)) return false;
  s->id = reply.GetInt("session", -1);
  s->next_poll_ns = s->sent_ns + interval_ns;
  return true;
}

bool PollBlocking(net::Client* client, Session* s, int64_t interval_ns) {
  Json reply;
  if (!Call(client, SessionRequest("poll", s->id), s, &reply)) {
    return false;
  }
  ++s->polls;
  s->progress.Apply(reply);
  const int64_t now = NowNs();
  if (s->ttfr_ns < 0 && s->progress.results > 0) s->ttfr_ns = now - s->due_ns;
  if (s->progress.done) s->ttk_ns = now - s->due_ns;
  s->next_poll_ns += interval_ns;
  return true;
}

bool CloseBlocking(net::Client* client, Session* s) {
  Json reply;
  if (!Call(client, SessionRequest("close", s->id), s, &reply)) {
    return false;
  }
  s->closed = true;
  AddSessionSpan(*s, NowNs());
  return true;
}

/// The long sessions' connection: kLongSessionsOpen sessions open at a
/// time, each polled every kLongPollNs and replaced as soon as it finishes,
/// until `end_ns`.
void RunLongSessions(uint16_t port, int64_t start_ns, int64_t end_ns,
                     int64_t give_up_ns, Tracer* tracer,
                     std::vector<std::unique_ptr<Session>>* longs,
                     std::string* error) {
  ShortenTimeSlice();
  auto connected = net::Client::Connect("127.0.0.1", port, 60.0);
  if (!connected.ok()) {
    *error = connected.status().ToString();
    return;
  }
  net::Client client = std::move(connected).value();
  SleepUntil(start_ns);
  std::vector<Session*> open;
  auto start_one = [&] {
    auto s = std::make_unique<Session>();
    s->kind = Kind::kLong;
    s->shape = LongShape();
    s->phase = 0;
    s->tracer = tracer;
    s->due_ns = NowNs();
    Session* raw = s.get();
    longs->push_back(std::move(s));
    if (!OpenBlocking(&client, raw, kLongPollNs)) return false;
    open.push_back(raw);
    return true;
  };
  for (int i = 0; i < kLongSessionsOpen; ++i) {
    if (!start_one()) {
      *error = "long session open failed";
      return;
    }
  }
  while (!open.empty()) {
    int64_t wake = open.front()->next_poll_ns;
    for (Session* s : open) wake = std::min(wake, s->next_poll_ns);
    SleepUntil(wake);
    if (NowNs() > give_up_ns) {
      *error = "long sessions still open at the drain deadline";
      return;
    }
    for (size_t i = 0; i < open.size();) {
      Session* s = open[i];
      if (s->next_poll_ns > NowNs()) {
        ++i;
        continue;
      }
      if (!PollBlocking(&client, s, kLongPollNs) ||
          (s->progress.done && !CloseBlocking(&client, s))) {
        *error = "long session request failed";
        return;
      }
      if (!s->progress.done) {
        ++i;
        continue;
      }
      open.erase(open.begin() + static_cast<int64_t>(i));
      if (NowNs() < end_ns && !start_one()) {
        *error = "long session open failed";
        return;
      }
    }
  }
}

/// Runs `s` to completion: open, poll every `interval_ns` until done, close.
bool RunBlocking(net::Client* client, Session* s, int64_t interval_ns,
                 int64_t give_up_ns) {
  if (!OpenBlocking(client, s, interval_ns)) return false;
  while (!s->progress.done) {
    SleepUntil(s->next_poll_ns);
    if (NowNs() > give_up_ns || !PollBlocking(client, s, interval_ns)) {
      return false;
    }
  }
  return CloseBlocking(client, s);
}

/// One pipelined short-session connection: sends every open at its due
/// time, polls and closes, and reads replies only until its next send.
/// Traced sessions' request and reply lines go to `captured`.
void RunConnection(uint16_t port, const std::vector<Session*>& arrivals,
                   int64_t give_up_ns, std::vector<std::string>* captured,
                   std::string* error) {
  ShortenTimeSlice();
  TcpConnection conn;
  if (!conn.Connect(port, error)) return;
  struct Pending {
    Session* s;
    char kind;  // 'o'pen, 'p'oll, 'c'lose
    int64_t sent_ns;
  };
  std::deque<Pending> fifo;
  std::vector<Session*> live;
  size_t next = 0;
  size_t polls_in_flight = 0;
  std::string batch;
  std::string line;
  auto send = [&](Session* s, char kind, const Json& request, int64_t now) {
    const std::string text = request.Dump();
    batch += text;
    batch += '\n';
    fifo.push_back({s, kind, now});
    ++s->requests;
    if (s->tracer != nullptr) captured->push_back(text);
  };
  while (true) {
    const int64_t now = NowNs();
    batch.clear();
    for (; next < arrivals.size() && arrivals[next]->due_ns <= now; ++next) {
      Session* s = arrivals[next];
      s->sent_ns = now;
      if (s->tracer != nullptr) s->root_span = s->tracer->NewId();
      send(s, 'o', OpenRequest(s->shape), now);
    }
    for (Session* s : live) {
      if (s->progress.done) {
        if (!s->close_sent) {
          send(s, 'c', SessionRequest("close", s->id), now);
          s->close_sent = true;
        }
      } else if (!s->outstanding && s->next_poll_ns <= now &&
                 polls_in_flight < kMaxPollsInFlight) {
        send(s, 'p', SessionRequest("poll", s->id), now);
        ++polls_in_flight;
        s->outstanding = true;
        s->next_poll_ns = now + kShortPollNs;
      }
    }
    if (!batch.empty() && !conn.io().WriteAll(batch)) {
      *error = "send failed";
      return;
    }
    live.erase(std::remove_if(live.begin(), live.end(),
                              [](Session* s) { return s->closed; }),
               live.end());
    if (next == arrivals.size() && fifo.empty() && live.empty()) return;
    if (now > give_up_ns) {
      *error = "sessions still open at the drain deadline";
      return;
    }

    int64_t wake = now + 5 * kMs;
    if (next < arrivals.size()) wake = std::min(wake, arrivals[next]->due_ns);
    for (Session* s : live) {
      if (!s->progress.done && !s->outstanding &&
          polls_in_flight < kMaxPollsInFlight) {
        wake = std::min(wake, s->next_poll_ns);
      }
    }
    if (fifo.empty()) {
      SleepUntil(wake);
      continue;
    }
    // Back to sending at `wake` even while replies keep coming (buffered
    // lines are returned without waiting), and early when a reply makes a
    // close or a held-back poll due now.
    bool send_now = false;
    while (!fifo.empty() && !send_now && NowNs() < wake) {
      const int got = conn.io().ReadLine(&line, wake);
      if (got == 0) break;
      if (got < 0) {
        *error = "connection closed by the server";
        return;
      }
      const int64_t t = NowNs();
      const Pending p = fifo.front();
      fifo.pop_front();
      Session* s = p.s;
      static const char* const kNetSpan[] = {"net.open", "net.poll",
                                             "net.close"};
      const char* net_span =
          kNetSpan[p.kind == 'o' ? 0 : p.kind == 'p' ? 1 : 2];
      auto parsed = Json::Parse(line);
      const int64_t parsed_at = NowNs();
      if (s->tracer != nullptr) captured->push_back(line);
      const bool ok = parsed.ok() && parsed.value().GetBool("ok", false);
      if (ok && p.kind == 'o') s->id = parsed.value().GetInt("session", -1);
      AddSpan(s->tracer, net_span, p.sent_ns, t, s->root_span, s->id);
      AddSpan(s->tracer, "util.json.parse", t, parsed_at, s->root_span,
              s->id);
      if (!ok) {
        if (s->failed_requests++ == 0) s->failure = line;
        // The session cannot go on; count it closed so the loop ends.
        if (p.kind == 'p') --polls_in_flight;
        s->outstanding = false;
        s->closed = true;
        continue;
      }
      const Json& reply = parsed.value();
      switch (p.kind) {
        case 'o':
          s->next_poll_ns = p.sent_ns + s->poll_phase_ns;
          live.push_back(s);
          break;
        case 'p':
          s->outstanding = false;
          send_now = polls_in_flight-- == kMaxPollsInFlight;
          ++s->polls;
          s->poll_reply_bytes += static_cast<int64_t>(line.size());
          s->progress.Apply(reply);
          if (s->ttfr_ns < 0 && s->progress.results > 0) {
            s->ttfr_ns = t - s->due_ns;
          }
          if (s->progress.done) {
            s->ttk_ns = t - s->due_ns;
            send_now = true;
          }
          break;
        default:
          s->closed = true;
          AddSessionSpan(*s, t);
          break;
      }
    }
  }
}

/// A replay transport: sends request lines, returns one reply per line.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual bool Exchange(const std::vector<std::pair<char, std::string>>& in,
                        std::vector<std::string>* out) = 0;
};

/// exsample_serve's stdin transport, in a child process.
class StdinTransport : public Transport {
 public:
  explicit StdinTransport(ChildProcess* child) : child_(child) {}
  bool Exchange(const std::vector<std::pair<char, std::string>>& in,
                std::vector<std::string>* out) override {
    std::string bytes;
    for (const auto& request : in) bytes += request.second + "\n";
    if (!child_->in().WriteAll(bytes)) return false;
    out->resize(in.size());
    for (std::string& reply : *out) {
      if (child_->out().ReadLine(&reply, NowNs() + 60000 * kMs) != 1) {
        return false;
      }
    }
    return true;
  }

 private:
  ChildProcess* const child_;
};

/// An in-process serve::ProtocolHandler, each HandleLine timed as a span.
class HandlerTransport : public Transport {
 public:
  HandlerTransport(serve::ProtocolHandler* handler, Tracer* tracer)
      : handler_(handler), tracer_(tracer) {}
  bool Exchange(const std::vector<std::pair<char, std::string>>& in,
                std::vector<std::string>* out) override {
    out->clear();
    for (const auto& [kind, line] : in) {
      const char* name = kind == 'o'   ? "serve.open"
                         : kind == 'p' ? "serve.poll"
                                       : "serve.close";
      ScopedSpan span(tracer_, name, -1, -1);
      out->push_back(handler_->HandleLine(line).response);
    }
    return true;
  }

 private:
  serve::ProtocolHandler* const handler_;
  Tracer* const tracer_;
};

/// Replays `by_id` (the live run's sessions, ids 1..N in order) through
/// `transport`, at most `window` open at a time, and checks that every
/// short and warm-up session and the first kLongChecked long ones return
/// the live run's results.
void Replay(const std::vector<Session*>& by_id, Transport* transport,
            size_t window, const std::string& label, Outcome* out) {
  struct Slot {
    Session* s = nullptr;
    bool check = false;
    bool opened = false;
    bool close_sent = false;
    bool closed = false;
    Progress progress;
  };
  std::vector<Slot> live;
  std::vector<std::pair<char, std::string>> requests;
  std::vector<size_t> owners;
  std::vector<std::string> replies;
  size_t next = 0;
  int64_t longs = 0;
  int mismatches = 0;
  while (next < by_id.size() || !live.empty()) {
    requests.clear();
    owners.clear();
    for (size_t i = 0; i < live.size(); ++i) {
      Slot& slot = live[i];
      if (!slot.opened) continue;
      if (slot.progress.done || !slot.check) {
        if (slot.close_sent) continue;
        requests.emplace_back('c', SessionRequest("close", slot.s->id).Dump());
        slot.close_sent = true;
      } else {
        requests.emplace_back('p', SessionRequest("poll", slot.s->id).Dump());
      }
      owners.push_back(i);
    }
    while (live.size() < window && next < by_id.size()) {
      Session* s = by_id[next++];
      const bool check = s->kind != Kind::kLong || longs++ < kLongChecked;
      Slot slot;
      slot.s = s;
      slot.check = check;
      live.push_back(std::move(slot));
      requests.emplace_back('o', OpenRequest(s->shape).Dump());
      owners.push_back(live.size() - 1);
    }
    if (!transport->Exchange(requests, &replies)) {
      out->Fail(label + ": the transport failed");
      return;
    }
    bool finished = false;
    for (size_t k = 0; k < requests.size(); ++k) {
      Slot& slot = live[owners[k]];
      auto parsed = Json::Parse(replies[k]);
      if (!parsed.ok() || !parsed.value().GetBool("ok", false)) {
        out->Fail(label + ": session " + std::to_string(slot.s->id) +
                  " request failed: " + replies[k]);
        return;
      }
      const Json& reply = parsed.value();
      switch (requests[k].first) {
        case 'o':
          if (reply.GetInt("session", -1) != slot.s->id) {
            out->Fail(label + ": replayed open got session " +
                      std::to_string(reply.GetInt("session", -1)) +
                      ", the live run had " + std::to_string(slot.s->id));
            return;
          }
          slot.opened = true;
          break;
        case 'p': {
          slot.progress.Apply(reply);
          if (!slot.progress.done) break;
          finished = true;
          const Progress& live_progress = slot.s->progress;
          if (slot.progress.fingerprint.value() !=
                  live_progress.fingerprint.value() ||
              slot.progress.results != live_progress.results ||
              slot.progress.stop_reason != live_progress.stop_reason) {
            if (++mismatches <= 5) {
              out->Fail(label + ": session " + std::to_string(slot.s->id) +
                        " replayed to " +
                        Hex(slot.progress.fingerprint.value()) + " (" +
                        std::to_string(slot.progress.results) + " results, " +
                        slot.progress.stop_reason + "), live run had " +
                        Hex(live_progress.fingerprint.value()) + " (" +
                        std::to_string(live_progress.results) + ", " +
                        live_progress.stop_reason + ")");
            }
          }
          break;
        }
        default:
          slot.closed = true;
          finished = true;
          break;
      }
    }
    live.erase(std::remove_if(live.begin(), live.end(),
                              [](const Slot& slot) { return slot.closed; }),
               live.end());
    if (!finished) SleepUntil(NowNs() + kMs / 5);
  }
  if (mismatches > 5) {
    out->Fail(label + ": " + std::to_string(mismatches - 5) +
              " more sessions did not reproduce");
  }
}

struct PhasePlan {
  std::string name;
  double rate = 0.0;
  int64_t start_ns = 0;  // offsets from the generator's start
  int64_t end_ns = 0;
};

/// The server under test plus its control connection (warm-ups, the final
/// metrics scrape).
struct Server {
  ChildProcess child;
  uint16_t port = 0;
  net::Client control;
};

/// Admission limit of the servers: the ladder's top rung overloads the
/// server on purpose, and its opens must queue up, not be refused.
constexpr size_t kMaxSessions = 4096;

bool StartServer(const RunOptions& options, Server* server,
                 std::string* error) {
  if (!server->child.Start({options.serve_binary, "--listen", "0", "--shards",
                            "1", "--threads", "2", "--seed",
                            std::to_string(options.seed), "--max-sessions",
                            std::to_string(kMaxSessions), "--scale", "0.05"},
                           /*pipe_stdin=*/false, error)) {
    return false;
  }
  std::string line;
  if (server->child.out().ReadLine(&line, NowNs() + 30000 * kMs) != 1) {
    *error = "exsample_serve did not announce its port";
    return false;
  }
  auto announced = Json::Parse(line);
  if (!announced.ok() || announced.value().GetInt("port", 0) <= 0) {
    *error = "bad announcement: " + line;
    return false;
  }
  server->port = static_cast<uint16_t>(announced.value().GetInt("port", 0));
  auto connected = net::Client::Connect("127.0.0.1", server->port, 60.0);
  if (!connected.ok()) {
    *error = connected.status().ToString();
    return false;
  }
  server->control = std::move(connected).value();
  return true;
}

/// Starts the server and opens one limit-1 session per dataset the
/// workload uses, so every dataset is generated before load starts.
/// Returns the set-up time, or -1 with `error` set.
double SetUp(const RunOptions& options, bool mixed, Server* server,
             std::vector<std::unique_ptr<Session>>* warmups,
             std::string* error) {
  const int64_t start = NowNs();
  if (!StartServer(options, server, error)) return -1.0;
  std::vector<OpenShape> shapes;
  for (const ShortType& type : kShortMix) shapes.push_back(ShortShape(type, 1));
  if (mixed) {
    OpenShape warm = LongShape();
    warm.budget_seconds = 0.0;
    warm.limit = 1;
    shapes.push_back(warm);
  }
  for (const OpenShape& shape : shapes) {
    auto s = std::make_unique<Session>();
    s->kind = Kind::kWarmup;
    s->shape = shape;
    s->due_ns = NowNs();
    if (!RunBlocking(&server->control, s.get(), kMs / 5,
                     NowNs() + 30000 * kMs)) {
      *error = "warm-up session failed";
      return -1.0;
    }
    warmups->push_back(std::move(s));
  }
  return static_cast<double>(NowNs() - start) * 1e-9;
}

/// The rate where the ladder's ttk p99 crosses the SLO, interpolated in
/// log-rate between the last passing and the first failing rung (a rung
/// whose sessions did not finish within 1 s of its end fails outright, at
/// the last passing rate); 0 when the first rung already fails.
double MaxQpsInSlo(const std::vector<PhasePlan>& plans,
                   const std::vector<double>& ttk_p99_ms,
                   const std::vector<bool>& backlog_ok) {
  for (size_t r = 0; r < plans.size(); ++r) {
    const bool pass = backlog_ok[r] && ttk_p99_ms[r] <= kSloMs;
    if (pass) continue;
    if (r == 0) return 0.0;
    const double a = plans[r - 1].rate, b = plans[r].rate;
    if (!backlog_ok[r]) return a;
    const double pa = ttk_p99_ms[r - 1], pb = ttk_p99_ms[r];
    const double f = pb > pa ? (kSloMs - pa) / (pb - pa) : 0.0;
    return std::exp(std::log(a) + (std::log(b) - std::log(a)) * f);
  }
  return plans.back().rate;
}

/// Everything one load run produced that the checks and metrics read.
struct LoadRun {
  std::vector<PhasePlan> plans;
  int64_t t0 = 0;
  int64_t warmup_ns = 0;
  /// Set-up warm-ups, short and long sessions.
  std::vector<std::unique_ptr<Session>> sessions;
  /// The server's CPU seconds and peak memory at each phase boundary:
  /// boundary 0 opens the warm-up, boundary p + 1 opens phase p.
  std::vector<double> cpu_at;
  std::vector<double> rss_at;
  /// The end-of-run `metrics` scrape.
  Json scrape;
  /// Traced runs: every protocol line of the short-session connections.
  std::vector<std::vector<std::string>> captured;
};

// The end-to-end metrics come from the first (150/s) phase on both
// workloads. Latency at 300/s and above includes queueing, which amplifies
// the host's speed drift: over ten seeds the 300/s rung's ttk p50 spreads by
// 0.18-0.25 of its median, the 150/s rung's by 0.06-0.10.
constexpr int kHeadline = 0;

/// Plans the phases and the seeded arrivals, appended to run->sessions and
/// dealt round-robin to the short connections (due times relative to t0).
void PlanArrivals(const RunOptions& options, bool mixed, LoadRun* run,
                  std::vector<std::vector<Session*>>* per_connection) {
  const int64_t total_ns = static_cast<int64_t>(options.seconds * 1e9);
  run->warmup_ns = std::min<int64_t>(1000 * kMs, total_ns / 10);
  if (mixed) {
    run->plans.push_back({"150/s", 150.0, run->warmup_ns, total_ns});
  } else {
    const int64_t rung_ns = (total_ns - run->warmup_ns) / 4;
    int64_t at = run->warmup_ns;
    for (double rate : {150.0, 300.0, 600.0, 1200.0}) {
      run->plans.push_back({std::to_string(static_cast<int>(rate)) + "/s",
                            rate, at, at + rung_ns});
      at += rung_ns;
    }
  }
  Rng rng(options.seed);
  std::vector<int> block;
  size_t arrivals = 0;
  auto add_arrivals = [&](int phase, double rate, int64_t begin,
                          int64_t end) {
    double t = static_cast<double>(begin);
    while (true) {
      t += -std::log(1.0 - rng.NextDouble()) / rate * 1e9;
      if (t >= static_cast<double>(end)) break;
      if (block.empty()) {
        block = {0, 1, 2, 3};
        rng.Shuffle(&block);
      }
      const ShortType& type = kShortMix[block.back()];
      block.pop_back();
      auto s = std::make_unique<Session>();
      s->shape = ShortShape(type, type.limit);
      s->phase = phase;
      s->due_ns = static_cast<int64_t>(t);
      s->poll_phase_ns =
          1 + static_cast<int64_t>(rng.NextBounded(kShortPollNs));
      (*per_connection)[arrivals++ % kShortConnections].push_back(s.get());
      run->sessions.push_back(std::move(s));
    }
  };
  add_arrivals(-1, 150.0, 0, run->warmup_ns);
  for (size_t p = 0; p < run->plans.size(); ++p) {
    add_arrivals(static_cast<int>(p), run->plans[p].rate,
                 run->plans[p].start_ns, run->plans[p].end_ns);
  }
}

/// Sets the server up kSetUps times (the last one stays up), then drives
/// the planned load against it. Returns false with `out` failed when the
/// set-up or the load generator failed.
bool RunLoad(const RunOptions& options, bool mixed, Tracer* tracer,
             EndToEnd* e2e, LoadRun* run, Outcome* out) {
  auto server = std::make_unique<Server>();
  for (int i = 0; i < kSetUps; ++i) {
    if (i > 0) {
      server->child.Stop();
      server = std::make_unique<Server>();
      run->sessions.clear();
    }
    std::string error;
    const double seconds =
        SetUp(options, mixed, server.get(), &run->sessions, &error);
    if (seconds < 0.0) {
      out->Fail("set-up: " + error);
      return false;
    }
    e2e->setup_seconds.push_back(seconds);
  }

  std::vector<std::vector<Session*>> per_connection(kShortConnections);
  PlanArrivals(options, mixed, run, &per_connection);
  const int64_t total_ns = run->plans.back().end_ns;
  run->t0 = NowNs() + 50 * kMs;
  for (auto& s : run->sessions) {
    if (s->kind != Kind::kShort) continue;
    s->due_ns += run->t0;
    if (s->phase == kHeadline) s->tracer = tracer;
  }
  const int64_t give_up = run->t0 + total_ns + 20000 * kMs;

  std::vector<int64_t> boundaries{run->t0, run->t0 + run->warmup_ns};
  for (const PhasePlan& plan : run->plans) {
    boundaries.push_back(run->t0 + plan.end_ns);
  }
  run->cpu_at.resize(boundaries.size());
  run->rss_at.resize(boundaries.size());
  std::thread watcher([&] {
    for (size_t b = 0; b < boundaries.size(); ++b) {
      SleepUntil(boundaries[b]);
      run->cpu_at[b] = CpuSeconds(server->child.pid());
      run->rss_at[b] = PeakRssMb(server->child.pid());
    }
  });
  std::vector<std::string> errors(kShortConnections + 1);
  run->captured.resize(kShortConnections);
  std::vector<std::thread> threads;
  for (int c = 0; c < kShortConnections; ++c) {
    threads.emplace_back([&, c] {
      RunConnection(server->port, per_connection[c], give_up,
                    &run->captured[c], &errors[c]);
    });
  }
  std::vector<std::unique_ptr<Session>> longs;
  if (mixed) {
    threads.emplace_back([&] {
      RunLongSessions(server->port, run->t0, run->t0 + total_ns, give_up,
                      tracer, &longs, &errors.back());
    });
  }
  for (std::thread& thread : threads) thread.join();
  watcher.join();
  for (auto& s : longs) run->sessions.push_back(std::move(s));
  for (const std::string& error : errors) {
    if (!error.empty()) out->Fail("load generator: " + error);
  }

  auto response = server->control.Call(Json::Object().Set("cmd", "metrics"));
  if (response.ok() && response.value().GetBool("ok", false)) {
    run->scrape = *response.value().Find("metrics");
  } else {
    out->Fail("metrics scrape failed");
  }
  return out->errors.empty();
}

/// Every request succeeded, every session stopped on its rule, and the
/// server's session ids are exactly 1..N. Returns the sessions by id.
std::vector<Session*> CheckSessions(const LoadRun& run, Outcome* out) {
  std::vector<Session*> by_id;
  int reported = 0;
  for (const auto& s : run.sessions) {
    out->attempted += s->requests;
    out->failed += s->failed_requests;
    if (s->failed_requests > 0 && reported++ < 3) {
      out->Fail("a request of session " + std::to_string(s->id) +
                " failed: " + s->failure.substr(0, 300));
    }
    by_id.push_back(s.get());
    const char* want = s->kind == Kind::kLong ? "budget" : "limit";
    if (s->failed_requests == 0 &&
        (!s->progress.done || s->progress.stop_reason != want)) {
      out->Fail("session " + std::to_string(s->id) + " stopped on '" +
                s->progress.stop_reason + "', want '" + want + "'");
    }
  }
  std::sort(by_id.begin(), by_id.end(),
            [](const Session* a, const Session* b) { return a->id < b->id; });
  for (size_t i = 0; i < by_id.size() && out->errors.empty(); ++i) {
    if (by_id[i]->id != static_cast<int64_t>(i) + 1) {
      out->Fail("session ids are not 1.." + std::to_string(by_id.size()));
    }
  }
  return by_id;
}

/// Per phase: requests sent, succeeded and failed, generator lateness, the
/// server's CPU and memory, and on the ladder the SLO verdict. The lateness
/// gate covers the headline phase, whose latencies are reported; an
/// overloaded rung may starve the generator of CPU too, and only fails (its
/// times run from the due times).
void ReportPhases(const LoadRun& run, bool mixed, Outcome* out) {
  std::vector<double> headline_late_ns;
  Json reports = Json::Array();
  std::vector<double> rung_p99;
  std::vector<bool> rung_backlog_ok;
  for (int p = -1; p < static_cast<int>(run.plans.size()); ++p) {
    std::vector<double> late, ttk;
    int64_t requests = 0, failed = 0, count = 0, in_time = 0;
    const int64_t end =
        run.t0 + (p < 0 ? run.warmup_ns : run.plans[p].end_ns);
    for (const auto& s : run.sessions) {
      if (s->kind != Kind::kShort || s->phase != p) continue;
      ++count;
      requests += s->requests;
      failed += s->failed_requests;
      late.push_back(static_cast<double>(s->sent_ns - s->due_ns));
      ttk.push_back(static_cast<double>(s->ttk_ns) * 1e-6);
      if (s->due_ns + s->ttk_ns <= end + 1000 * kMs) ++in_time;
    }
    if (p == kHeadline) headline_late_ns = late;
    const double p99 = Quantile(ttk, 0.99);
    const size_t first = static_cast<size_t>(p + 1);
    const double cpu_ms = (run.cpu_at[first + 1] - run.cpu_at[first]) * 1e3;
    const bool backlog_ok =
        count == 0 || static_cast<double>(in_time) >= 0.99 * count;
    Json report =
        Json::Object()
            .Set("phase", p < 0 ? std::string("warmup") : run.plans[p].name)
            .Set("sessions", count)
            .Set("requests", requests)
            .Set("succeeded", requests - failed)
            .Set("failed", failed)
            .Set("gen_late_us_p99", Quantile(late, 0.99) * 1e-3)
            .Set("ttk_p50_ms", Quantile(ttk, 0.5))
            .Set("ttk_p99_ms", p99)
            .Set("finished_in_time_frac",
                 count > 0 ? static_cast<double>(in_time) / count : 1.0)
            .Set("server_cpu_ms_per_session", count > 0 ? cpu_ms / count : 0.0)
            .Set("server_peak_rss_mb", run.rss_at[first + 1]);
    if (p >= 0 && !mixed) {
      report.Set("within_slo", backlog_ok && p99 <= kSloMs);
      rung_p99.push_back(p99);
      rung_backlog_ok.push_back(backlog_ok);
    }
    reports.Append(std::move(report));
  }
  out->detail.Set("phases", std::move(reports))
      .Set("failed_frac", out->attempted > 0
                              ? static_cast<double>(out->failed) /
                                    static_cast<double>(out->attempted)
                              : 0.0);
  if (!mixed) {
    out->detail.Set("slo_ttk_p99_ms", kSloMs)
        .Set("max_qps_in_slo",
             MaxQpsInSlo(run.plans, rung_p99, rung_backlog_ok));
  }
  CheckLateness(headline_late_ns, out);
}

/// Replays every open the server received, in id order, through the same
/// binary's stdin transport.
void CheckReplay(const RunOptions& options, const std::vector<Session*>& by_id,
                 Outcome* out) {
  ChildProcess replay;
  std::string error;
  // Results do not depend on the thread count, so the replay uses every
  // core.
  if (!replay.Start({options.serve_binary, "--threads", "4", "--seed",
                     std::to_string(options.seed), "--max-sessions",
                     std::to_string(kMaxSessions), "--scale", "0.05"},
                    /*pipe_stdin=*/true, &error)) {
    out->Fail("replay server: " + error);
    return;
  }
  StdinTransport transport(&replay);
  Replay(by_id, &transport, 16, "stdin replay", out);
}

/// End-to-end inputs, all from the headline phase: its short sessions'
/// times and modeled cost, and every session opened in its window (on
/// tcp_mixed the long ones too) for throughput and the server's CPU and
/// memory. The long sessions' cost is fixed by their budget, and how many of
/// them fit in the window depends on host speed, so they stay out of the
/// cost per result.
void CollectEndToEnd(const LoadRun& run, bool mixed, EndToEnd* e2e,
                     Outcome* out) {
  const PhasePlan& window = run.plans[kHeadline];
  std::vector<double> long_done_ms;
  for (const auto& s : run.sessions) {
    if (s->kind == Kind::kLong) {
      long_done_ms.push_back(static_cast<double>(s->ttk_ns) * 1e-6);
    }
    if (s->kind == Kind::kShort && s->phase == kHeadline) {
      e2e->ttfr_seconds.push_back(static_cast<double>(s->ttfr_ns) * 1e-9);
      e2e->ttk_seconds.push_back(static_cast<double>(s->ttk_ns) * 1e-9);
      e2e->results += s->progress.results;
      e2e->modeled_seconds += s->progress.cost_seconds;
    }
    if (s->kind == Kind::kWarmup || s->due_ns < run.t0 + window.start_ns ||
        s->due_ns >= run.t0 + window.end_ns) {
      continue;
    }
    ++e2e->queries;
    e2e->frames += s->progress.frames;
  }
  e2e->wall_seconds =
      static_cast<double>(window.end_ns - window.start_ns) * 1e-9;
  e2e->cpu_seconds = run.cpu_at[kHeadline + 2] - run.cpu_at[kHeadline + 1];
  e2e->peak_rss_mb = run.rss_at[kHeadline + 2];
  if (mixed) {
    out->detail
        .Set("long_sessions", static_cast<int64_t>(long_done_ms.size()))
        .Set("long_done_p50_ms", Median(long_done_ms));
  }
}

/// Core, detect and track from the decomposition: every checked session
/// re-run in-process must reproduce its live results; spans are kept for a
/// sample of the short sessions and for the checked long ones. Also the
/// scheduler's share of each headline session's time to first result.
void DecomposeSessions(const RunOptions& options,
                       const std::vector<Session*>& by_id, Tracer* tracer,
                       Outcome* out) {
  EngineCounts counts;
  DatasetCache datasets(options.seed);
  std::vector<double> wait_us, server_ttfr_us;
  int64_t shorts = 0, longs_seen = 0, short_index = 0;
  for (const Session* s : by_id) shorts += s->kind == Kind::kShort;
  const int64_t stride = std::max<int64_t>(1, shorts / kTracedShortSessions);
  for (const Session* s : by_id) {
    if (s->kind == Kind::kLong && longs_seen++ >= kLongChecked) continue;
    const bool keep = s->kind == Kind::kLong ||
                      (s->kind == Kind::kShort && short_index++ % stride == 0);
    const data::Dataset* dataset =
        datasets.Get(s->shape.preset, s->shape.scale);
    Rerun rerun;
    std::string error;
    if (dataset == nullptr ||
        !RerunSession(*dataset, s->shape, options.seed, s->id,
                      keep ? tracer : nullptr,
                      keep ? &counts.track_frame_ns : nullptr, &rerun,
                      &error)) {
      out->Fail("decomposition of session " + std::to_string(s->id) + ": " +
                error);
      return;
    }
    if (rerun.fingerprint != s->progress.fingerprint.value() ||
        rerun.results != s->progress.results) {
      out->Fail("decomposition of session " + std::to_string(s->id) +
                " gave " + Hex(rerun.fingerprint) + ", the live run " +
                Hex(s->progress.fingerprint.value()));
      continue;
    }
    if (keep) {
      ++counts.queries;
      counts.frames += rerun.frames;
      counts.results += rerun.results;
      counts.true_instances += rerun.true_instances;
      counts.detections += rerun.detections;
    }
    if (s->kind == Kind::kShort && s->phase == kHeadline &&
        s->progress.server_ttfr_seconds >= 0.0) {
      server_ttfr_us.push_back(s->progress.server_ttfr_seconds * 1e6);
      wait_us.push_back(
          (s->progress.server_ttfr_seconds - rerun.ttfr_seconds) * 1e6);
    }
  }
  SetEngineLayers(Summarize(tracer->spans()), counts, out);
  auto& v = out->values;
  v["data.generate_s"] = datasets.generate_seconds();
  v["serve.scheduler.server_ttfr.p50"] = Quantile(server_ttfr_us, 0.5);
  v["serve.scheduler.server_ttfr.p99"] = Quantile(server_ttfr_us, 0.99);
  v["serve.scheduler.wait.p50"] = Quantile(wait_us, 0.5);
  v["serve.scheduler.wait.p99"] = Quantile(wait_us, 0.99);
}

/// Scheduler and pipeline numbers from the server's end-of-run scrape.
void ScrapeLayers(const Json& scrape, Outcome* out) {
  auto& v = out->values;
  auto counter = [&scrape](const char* name) {
    const Json* counters = scrape.Find("counters");
    const Json* family = counters ? counters->Find(name) : nullptr;
    return family ? static_cast<double>(family->GetInt("total", 0)) : 0.0;
  };
  const Json* histograms = scrape.Find("histograms");
  const Json* slice =
      histograms ? histograms->Find("serve.slice_seconds") : nullptr;
  if (slice != nullptr && slice->GetInt("count", 0) > 0) {
    v["serve.scheduler.slice.mean"] =
        slice->GetDouble("sum_seconds", 0.0) /
        static_cast<double>(slice->GetInt("count", 0)) * 1e6;
  }
  const double opened = counter("serve.sessions_opened");
  if (opened > 0) {
    v["serve.scheduler.slices.per_query"] =
        counter("serve.slices_run") / opened;
  }
  const double detect_batches = counter("pipeline.detect_batches");
  const double decoded = counter("pipeline.frames_decoded");
  if (detect_batches > 0) {
    v["exec.pipeline.detect_starved.per_batch"] =
        counter("pipeline.stalls_detector_starved") / detect_batches;
    v["exec.pipeline.frames.per_detect_batch"] =
        counter("pipeline.detect_frames") / detect_batches;
  }
  if (decoded > 0) {
    v["exec.pipeline.wasted_decode.frac"] =
        (decoded - counter("pipeline.detect_frames")) / decoded;
  }
}

/// Client side, over the traced (headline) sessions: round trips, reply
/// sizes, requests per session, and util::Json timed on their captured
/// protocol lines.
void ClientLayers(const LoadRun& run, const std::vector<Session*>& by_id,
                  const Tracer& client_tracer, Outcome* out) {
  auto& v = out->values;
  const TraceSummary client = Summarize(client_tracer.spans());
  auto durations = [&client](const char* name) {
    auto it = client.layers.find(name);
    return it == client.layers.end() ? std::vector<double>{}
                                     : it->second.durations_ns;
  };
  v["net.open_rtt.p50"] = Quantile(durations("net.open"), 0.5) * 1e-3;
  v["net.poll_rtt.p50"] = Quantile(durations("net.poll"), 0.5) * 1e-3;
  v["net.poll_rtt.p99"] = Quantile(durations("net.poll"), 0.99) * 1e-3;
  double net_ns = 0.0;
  for (const char* name : {"net.open", "net.poll", "net.close", "net.call"}) {
    auto it = client.layers.find(name);
    if (it != client.layers.end()) net_ns += it->second.attributed_ns;
  }
  v["net.rtt.share"] = client.root_ns > 0 ? net_ns / client.root_ns : 0.0;
  int64_t sessions = 0, polls = 0, reply_bytes = 0, requests = 0;
  for (const Session* s : by_id) {
    if (s->tracer == nullptr) continue;
    ++sessions;
    requests += s->requests;
    if (s->kind != Kind::kShort) continue;
    polls += s->polls;
    reply_bytes += s->poll_reply_bytes;
  }
  v["net.reply_bytes.per_poll"] =
      polls > 0 ? static_cast<double>(reply_bytes) / polls : 0.0;
  v["net.requests.per_query"] =
      sessions > 0 ? static_cast<double>(requests) / sessions : 0.0;

  double parse_ns = 0.0, dump_ns = 0.0, bytes = 0.0;
  for (const auto& lines : run.captured) {
    for (const std::string& line : lines) {
      const int64_t a = NowNs();
      auto parsed = Json::Parse(line);
      const int64_t b = NowNs();
      if (!parsed.ok()) continue;
      const std::string dumped = parsed.value().Dump();
      const int64_t c = NowNs();
      parse_ns += static_cast<double>(b - a);
      dump_ns += static_cast<double>(c - b);
      bytes += static_cast<double>(dumped.size());
    }
  }
  if (bytes > 0) {
    v["util.json.parse"] = parse_ns / bytes;
    v["util.json.dump"] = dump_ns / bytes;
  }
}

/// serve::ProtocolHandler on an in-process handler fed the captured request
/// script (a prefix of the sessions, by id), each HandleLine a span.
void ProtocolLayers(const RunOptions& options,
                    const std::vector<Session*>& by_id, Tracer* tracer,
                    Outcome* out) {
  {
    serve::StatsCache cache;
    serve::DatasetPool pool(options.seed);
    serve::SessionManager::Options manager_options;
    manager_options.threads = 2;
    manager_options.max_live_sessions = kMaxSessions;
    manager_options.base_seed = options.seed;
    serve::SessionManager manager(manager_options);
    serve::ProtocolHandler::Options handler_options;
    handler_options.default_scale = kShortScale;
    serve::ProtocolHandler handler(&manager, &cache, &pool, handler_options);
    HandlerTransport transport(&handler, tracer);
    const std::vector<Session*> prefix(
        by_id.begin(),
        by_id.begin() + std::min(by_id.size(), kProtocolReplaySessions));
    Replay(prefix, &transport, 16, "protocol replay", out);
  }
  const TraceSummary protocol = Summarize(tracer->spans());
  auto protocol_us = [&protocol](const char* name, double q) {
    auto it = protocol.layers.find(name);
    return it == protocol.layers.end()
               ? 0.0
               : Quantile(it->second.durations_ns, q) * 1e-3;
  };
  out->values["serve.protocol.open.p50"] = protocol_us("serve.open", 0.5);
  out->values["serve.protocol.poll.p50"] = protocol_us("serve.poll", 0.5);
  out->values["serve.protocol.poll.p99"] = protocol_us("serve.poll", 0.99);
}

Outcome RunTcp(const RunOptions& options, bool mixed) {
  Outcome out;
  EndToEnd e2e;
  LoadRun run;
  Tracer client_tracer;
  if (!RunLoad(options, mixed, options.trace ? &client_tracer : nullptr, &e2e,
               &run, &out)) {
    return out;
  }
  const std::vector<Session*> by_id = CheckSessions(run, &out);
  if (!out.errors.empty() || out.failed > 0) return out;
  ReportPhases(run, mixed, &out);
  if (out.late) return out;
  CheckReplay(options, by_id, &out);
  CollectEndToEnd(run, mixed, &e2e, &out);
  if (!options.trace) {
    SetEndToEnd(e2e, &out);
    return out;
  }
  out.values["trace.ttk_p50_ms"] = Quantile(e2e.ttk_seconds, 0.5) * 1e3;
  Tracer engine_tracer, protocol_tracer;
  DecomposeSessions(options, by_id, &engine_tracer, &out);
  ScrapeLayers(run.scrape, &out);
  ClientLayers(run, by_id, client_tracer, &out);
  ProtocolLayers(options, by_id, &protocol_tracer, &out);
  FinishTrace(options, mixed ? "tcp_mixed" : "tcp_short",
              {{"client", &client_tracer},
               {"protocol", &protocol_tracer},
               {"engine", &engine_tracer}},
              &out);
  return out;
}

/// A run whose generator missed its schedule reports nothing; the host's
/// other tenants can stall it for a while, so it is measured once more
/// (same seed, fresh server) when the first attempt left time for it.
Outcome RunTcpAttempts(const RunOptions& options, bool mixed) {
  const int64_t start = NowNs();
  Outcome out;
  for (int attempt = 1; attempt <= 2; ++attempt) {
    out = RunTcp(options, mixed);
    out.detail.Set("attempts", static_cast<int64_t>(attempt));
    if (!out.late || NowNs() - start > 60000 * kMs) break;
    std::fprintf(stderr,
                 "bench_e2e: attempt %d missed the schedule (gen late p99 "
                 "%.0f us)\n",
                 attempt, out.values["gen.late_us.p99"]);
  }
  return out;
}

}  // namespace

Outcome RunTcpShort(const RunOptions& options) {
  return RunTcpAttempts(options, /*mixed=*/false);
}

Outcome RunTcpMixed(const RunOptions& options) {
  return RunTcpAttempts(options, /*mixed=*/true);
}

}  // namespace e2e
}  // namespace exsample
