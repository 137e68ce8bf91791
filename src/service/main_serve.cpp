// patty-serve: the resident analysis daemon.
//
//   patty-serve --socket /tmp/patty.sock [--workers N] [--queue-limit N]
//               [--cache-mb N] [--deadline-ms N] [--write-timeout-ms N]
//
// Serves parse/detect/certify/tune requests over a Unix-domain socket
// (wire format: service/protocol.hpp; client: service/client.hpp). Runs
// until SIGINT/SIGTERM or a `shutdown` request, then drains the pending
// queue — every admitted request still gets its response — and exits 0.
// With PATTY_FAULTS set, the failpoint harness arms fault injection on the
// daemon's own paths (see DESIGN.md §14).

#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "service/server.hpp"

namespace {

// Self-pipe: the handler's only action is one write(), which is
// async-signal-safe. Taking the server's shutdown mutex here would
// self-deadlock if the signal lands while this thread holds it inside
// wait_for_shutdown(); a watcher thread translates the byte into
// request_shutdown() from normal thread context instead.
int g_signal_pipe[2] = {-1, -1};

void on_signal(int) {
  const unsigned char byte = 1;
  (void)!::write(g_signal_pipe[1], &byte, 1);
}

[[noreturn]] void usage(const char* argv0, int code) {
  std::fprintf(
      code == 0 ? stdout : stderr,
      "usage: %s --socket PATH [options]\n"
      "  --socket PATH         Unix-domain socket to bind (required)\n"
      "  --workers N           request-executor threads (default 2)\n"
      "  --queue-limit N       admission high-water mark (default 64)\n"
      "  --cache-mb N          semantic-model cache budget (default 64)\n"
      "  --deadline-ms N       default per-request deadline (default and\n"
      "                        cap 60000)\n"
      "  --write-timeout-ms N  per-write send timeout, 0 = block forever\n",
      argv0);
  std::exit(code);
}

long parse_long(const char* argv0, const char* flag, const char* text) {
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || v < 0) {
    std::fprintf(stderr, "%s: bad value '%s' for %s\n", argv0, text, flag);
    usage(argv0, 2);
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  patty::service::ServerOptions options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", argv[0], arg);
        usage(argv[0], 2);
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "--socket") == 0) {
      options.socket_path = value();
    } else if (std::strcmp(arg, "--workers") == 0) {
      options.workers = static_cast<int>(parse_long(argv[0], arg, value()));
    } else if (std::strcmp(arg, "--queue-limit") == 0) {
      options.queue_limit =
          static_cast<std::size_t>(parse_long(argv[0], arg, value()));
    } else if (std::strcmp(arg, "--cache-mb") == 0) {
      options.cache_bytes =
          static_cast<std::size_t>(parse_long(argv[0], arg, value())) << 20;
    } else if (std::strcmp(arg, "--deadline-ms") == 0) {
      options.default_deadline_ms = parse_long(argv[0], arg, value());
    } else if (std::strcmp(arg, "--write-timeout-ms") == 0) {
      options.write_timeout_ms = parse_long(argv[0], arg, value());
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      usage(argv[0], 0);
    } else {
      std::fprintf(stderr, "%s: unknown flag '%s'\n", argv[0], arg);
      usage(argv[0], 2);
    }
  }
  if (options.socket_path.empty()) {
    std::fprintf(stderr, "%s: --socket is required\n", argv[0]);
    usage(argv[0], 2);
  }

  // PATTY_FAULTS (if set) was parsed by the failpoint harness before main.
  patty::service::Server server(options);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "patty-serve: %s\n", e.what());
    return 1;
  }
  if (::pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "patty-serve: pipe: %s\n", std::strerror(errno));
    return 1;
  }
  std::thread signal_watcher([&server] {
    unsigned char byte;
    ssize_t n;
    do {
      n = ::read(g_signal_pipe[0], &byte, 1);
    } while (n < 0 && errno == EINTR);
    if (n > 0) server.request_shutdown();
  });
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  std::fprintf(stderr, "patty-serve: listening on %s (%d workers)\n",
               options.socket_path.c_str(), options.workers);
  server.wait_for_shutdown();
  std::fprintf(stderr, "patty-serve: draining\n");
  // Wake the watcher from normal context (request_shutdown is idempotent),
  // join it, and only then tear the pipe down — with signals ignored first,
  // so a late handler can never write into a recycled fd.
  const unsigned char wake = 0;
  (void)!::write(g_signal_pipe[1], &wake, 1);
  signal_watcher.join();
  std::signal(SIGINT, SIG_IGN);
  std::signal(SIGTERM, SIG_IGN);
  ::close(g_signal_pipe[0]);
  ::close(g_signal_pipe[1]);
  server.stop();
  return 0;
}
