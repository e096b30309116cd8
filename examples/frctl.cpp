// frctl — control client for the frd continuous-scanning daemon.
//
// Subcommands (all take --socket=PATH, default /tmp/frd.sock):
//
//   submit [spec flags]   submit a scan job; prints "submitted id=N ..."
//                         exit 0 admitted, 3 rejected, 1 transport error.
//                         The scan flags are flashroute_cli's
//                         (svc/scan_spec.h): the same flags run the same
//                         scan in both programs.
//   status <id>           one job's state and progress
//   list                  every job the daemon knows
//   wait <id>             block until the job is terminal
//   wait-all              block until every job is terminal
//   cancel <id>           cancel a job (waiting: immediate; running: at its
//                         next round barrier)
//   diff <before> <after> churn report between two archived snapshots
//   verify <id>           size + FNV-1a digest of a job's archived payload
//   shutdown              drain and stop the daemon
//
// Crash-recovery ergonomics (DESIGN.md §14): --retries=N retries the whole
// command with capped exponential backoff when the daemon is unreachable
// or dies mid-exchange (ECONNREFUSED / ECONNRESET while it restarts).
// Pair it with submit --request-key=K: a journaled daemon deduplicates the
// key across restarts, so a blind retry can never double-admit.  Exit 4
// means "gave up after retries" — distinct from a plain transport error
// (exit 1) so scripts can tell a dead daemon from a flapping one.
//
// The whole command line is read before anything connects: a malformed
// flag, number or job id prints the usage and exits 2 at once.  Output is
// line-oriented key=value, so shell scripts (and the CI smoke) can grep it
// without a JSON parser.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "svc/client.h"
#include "svc/scan_spec.h"
#include "util/flags.h"

using namespace flashroute;

namespace {

constexpr int kExitTransport = 1;
constexpr int kExitUsage = 2;
constexpr int kExitRejected = 3;
constexpr int kExitRetriesExhausted = 4;

void print_usage(std::FILE* out) {
  std::fputs(
      "usage: frctl [--socket=PATH] [--connect-timeout-ms=N]\n"
      "             [--retries=N] [--retry-backoff-ms=N] COMMAND ...\n"
      "frd control client\n"
      "\n"
      "commands:\n"
      "  submit [--name=S] [--priority=N] [--weight=X] [--request-key=K]\n"
      "         [scan flags]\n"
      "  status <id> | list | wait <id> | wait-all | cancel <id>\n"
      "  diff <before-id> <after-id> | verify <id> | shutdown\n"
      "\n"
      "--retries=N retries a transiently failing command (daemon\n"
      "restarting) with capped exponential backoff; exit 4 = gave up.\n"
      "Use submit --request-key=K so retries never double-admit.\n"
      "\n",
      out);
  std::fputs(svc::scan_flags_usage().c_str(), out);
}

/// One command, read in full before anything connects.
struct Command {
  std::string name;
  svc::JobSpec spec;               ///< submit
  std::vector<std::uint64_t> ids;  ///< the job ids it names
};

/// The command `args` spell, or nullopt after printing why not.
std::optional<Command> parse_command(const std::vector<std::string>& args) {
  const auto refuse = [](const char* why, std::string_view arg) {
    std::fprintf(stderr, "frctl: %s: %.*s\n", why,
                 static_cast<int>(arg.size()), arg.data());
    return std::nullopt;
  };
  Command command;
  command.name = args[0];
  if (command.name == "submit") {
    svc::JobSpec& spec = command.spec;
    for (std::size_t i = 1; i < args.size(); ++i) {
      const std::string_view arg = args[i];
      std::string error;
      switch (svc::parse_scan_flag(arg, spec, error)) {
        case svc::FlagParse::kApplied:
          continue;
        case svc::FlagParse::kBad:
          std::fprintf(stderr, "frctl: %s\n", error.c_str());
          return std::nullopt;
        case svc::FlagParse::kNotScanFlag:
          break;
      }
      std::optional<std::string_view> v;
      const auto value_of = [&](const char* name) {
        return (v = util::flag_value(arg, name)).has_value();
      };
      if (value_of("--name")) {
        spec.name = *v;
      } else if (value_of("--request-key")) {
        spec.request_key = *v;
      } else if (value_of("--priority")) {
        if (!util::read_number(*v, spec.priority)) {
          return refuse("bad value", arg);
        }
      } else if (value_of("--weight")) {
        if (!util::read_number(*v, spec.weight)) {
          return refuse("bad value", arg);
        }
      } else {
        return refuse("unknown submit flag", arg);
      }
    }
    return command;
  }
  std::size_t arity = 0;
  if (command.name == "status" || command.name == "wait" ||
      command.name == "cancel" || command.name == "verify") {
    arity = 1;
  } else if (command.name == "diff") {
    arity = 2;
  } else if (command.name != "list" && command.name != "wait-all" &&
             command.name != "shutdown") {
    return refuse("unknown command", command.name);
  }
  if (args.size() != arity + 1) return refuse("wrong arguments for", args[0]);
  for (std::size_t i = 1; i < args.size(); ++i) {
    command.ids.push_back(0);
    if (!util::read_number(args[i], command.ids.back())) {
      return refuse("bad job id", args[i]);
    }
  }
  return command;
}

void print_view(const svc::JobView& view) {
  std::printf(
      "job=%llu state=%s name=%s priority=%d pps=%.0f probes=%llu "
      "slices=%llu checkpoint=%d detail=%s\n",
      static_cast<unsigned long long>(view.id),
      svc::job_state_name(view.state), view.name.c_str(), view.priority,
      view.probes_per_second, static_cast<unsigned long long>(view.probes),
      static_cast<unsigned long long>(view.slices),
      view.has_checkpoint ? 1 : 0, view.detail.c_str());
}

/// One full attempt at the command.  `transient` is set when the failure
/// is plausibly the daemon restarting (worth a backoff + retry): the
/// connection never came up, or the peer vanished mid-exchange.
int run_once(const std::string& socket_path, int connect_timeout_ms,
             const Command& cmd, bool& transient) {
  transient = false;
  const std::string& command = cmd.name;

  auto client = svc::Client::connect(socket_path, connect_timeout_ms);
  if (!client.has_value()) {
    std::fprintf(stderr, "frctl: cannot connect to %s\n", socket_path.c_str());
    transient = true;
    return kExitTransport;
  }
  const auto transport_error = [&transient]() {
    std::fprintf(stderr, "frctl: daemon unreachable or protocol error\n");
    transient = true;
    return kExitTransport;
  };

  if (command == "submit") {
    const auto submission = client->submit(cmd.spec);
    if (!submission.has_value()) return transport_error();
    std::printf("submitted id=%llu admitted=%d reason=%s detail=%s\n",
                static_cast<unsigned long long>(submission->job_id),
                submission->admitted ? 1 : 0, submission->reason.c_str(),
                submission->detail.c_str());
    return submission->admitted ? 0 : kExitRejected;
  }

  if (command == "status" || command == "wait") {
    const std::uint64_t id = cmd.ids[0];
    const auto view =
        command == "wait" ? client->wait_job(id) : client->status(id);
    if (!view.has_value()) {
      std::fprintf(stderr, "frctl: no such job %llu (or daemon gone)\n",
                   static_cast<unsigned long long>(id));
      return kExitTransport;
    }
    print_view(*view);
    return 0;
  }

  if (command == "list") {
    const auto views = client->list();
    if (!views.has_value()) return transport_error();
    for (const svc::JobView& view : *views) print_view(view);
    return 0;
  }

  if (command == "wait-all") {
    if (!client->wait_all()) return transport_error();
    std::printf("all jobs terminal\n");
    return 0;
  }

  if (command == "cancel") {
    const auto outcome = client->cancel(cmd.ids[0]);
    if (!outcome.has_value()) return transport_error();
    const char* text = "not_found";
    switch (*outcome) {
      case svc::CancelOutcome::kNotFound:
        text = "not_found";
        break;
      case svc::CancelOutcome::kAlreadyTerminal:
        text = "already_terminal";
        break;
      case svc::CancelOutcome::kCancelled:
        text = "cancelled";
        break;
      case svc::CancelOutcome::kSignalled:
        text = "signalled";
        break;
    }
    std::printf("cancel outcome=%s\n", text);
    return *outcome == svc::CancelOutcome::kNotFound ? 1 : 0;
  }

  if (command == "diff") {
    const auto diff = client->diff(cmd.ids[0], cmd.ids[1]);
    if (!diff.has_value()) return transport_error();
    if (!diff->ok) {
      std::fprintf(stderr, "frctl: diff failed: %s\n", diff->error.c_str());
      return 1;
    }
    std::printf(
        "diff interfaces_before=%llu interfaces_after=%llu appeared=%llu "
        "vanished=%llu routes_compared=%llu changed_hops=%llu "
        "changed_length=%llu\n",
        static_cast<unsigned long long>(diff->interfaces_before),
        static_cast<unsigned long long>(diff->interfaces_after),
        static_cast<unsigned long long>(diff->interfaces_appeared),
        static_cast<unsigned long long>(diff->interfaces_vanished),
        static_cast<unsigned long long>(diff->routes_compared),
        static_cast<unsigned long long>(diff->routes_changed_hops),
        static_cast<unsigned long long>(diff->routes_changed_length));
    return 0;
  }

  if (command == "verify") {
    const auto verify = client->verify(cmd.ids[0]);
    if (!verify.has_value()) return transport_error();
    if (!verify->found) {
      std::fprintf(stderr, "frctl: job has no archived payload\n");
      return 1;
    }
    std::printf("verify size=%llu fnv1a=0x%016llx\n",
                static_cast<unsigned long long>(verify->payload_size),
                static_cast<unsigned long long>(verify->payload_fnv1a));
    return 0;
  }

  if (!client->shutdown()) return transport_error();  // shutdown
  std::printf("shutdown acknowledged\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path = "/tmp/frd.sock";
  int connect_timeout_ms = 5000;
  int retries = 0;
  int retry_backoff_ms = 100;
  constexpr int kBackoffCapMs = 2000;
  std::vector<std::string> args;
  bool usable = true;
  for (int i = 1; i < argc && usable; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(stdout);
      return 0;
    }
    std::optional<std::string_view> v;
    const auto value_of = [&](const char* name) {
      return (v = util::flag_value(arg, name)).has_value();
    };
    if (value_of("--socket")) {
      socket_path = *v;
    } else if (value_of("--connect-timeout-ms")) {
      usable = util::read_number(*v, connect_timeout_ms);
    } else if (value_of("--retries")) {
      usable = util::read_number(*v, retries);
    } else if (value_of("--retry-backoff-ms")) {
      usable = util::read_number(*v, retry_backoff_ms);
    } else {
      args.emplace_back(arg);
    }
    if (!usable) std::fprintf(stderr, "frctl: bad value: %s\n", argv[i]);
  }
  const std::optional<Command> command =
      usable && !args.empty() ? parse_command(args) : std::nullopt;
  if (!command.has_value()) {
    print_usage(stderr);
    return kExitUsage;
  }

  int backoff_ms = retry_backoff_ms > 0 ? retry_backoff_ms : 100;
  for (int attempt = 0;; ++attempt) {
    bool transient = false;
    const int code = run_once(socket_path, connect_timeout_ms, *command,
                              transient);
    if (!transient) return code;
    if (attempt >= retries) {
      if (retries > 0) {
        std::fprintf(stderr, "frctl: gave up after %d retries\n", retries);
        return kExitRetriesExhausted;
      }
      return code;
    }
    std::fprintf(stderr, "frctl: transient failure; retry %d/%d in %d ms\n",
                 attempt + 1, retries, backoff_ms);
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    backoff_ms = backoff_ms * 2 > kBackoffCapMs ? kBackoffCapMs
                                                : backoff_ms * 2;
  }
}
