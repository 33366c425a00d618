/**
 * @file
 * Client side of the serve protocol: connect to a daemon's socket,
 * exchange framed JSON, and drive one request/reply-stream cycle.
 * This is the seam `mcd_cli request` is built on, and what an
 * external tool would embed to talk to a daemon without shelling out.
 */

#ifndef MCD_SERVE_CLIENT_HH
#define MCD_SERVE_CLIENT_HH

#include <functional>
#include <string>

#include "common/json.hh"
#include "serve/protocol.hh"

namespace mcd::serve
{

/** One connection to a serve daemon. */
class ServeClient
{
  public:
    ServeClient() = default;
    ~ServeClient();

    ServeClient(const ServeClient &) = delete;
    ServeClient &operator=(const ServeClient &) = delete;

    /** Connect to the daemon at `socket_path`. False (with a message
     *  in `error`) when the socket is absent or refuses. */
    bool connect(const std::string &socket_path, std::string *error);

    bool connected() const { return fd_ >= 0; }

    void close();

    /** Send one raw request frame. */
    bool send(const std::string &payload, std::string *error);

    /** Receive one raw reply frame. */
    FrameStatus recv(std::string &payload);

    /**
     * Send `request` and consume reply frames, invoking `on_event`
     * for each, until a terminal event arrives — `done`, `error`,
     * `pong`, `stats`, or `shutdown` (everything but the `result`
     * stream) — which lands in `terminal`. False on transport or
     * parse failures, with a message in `error`.
     */
    bool call(const std::string &request,
              const std::function<void(const json::Value &)> &on_event,
              json::Value &terminal, std::string *error);

  private:
    int fd_ = -1;
};

} // namespace mcd::serve

#endif // MCD_SERVE_CLIENT_HH
