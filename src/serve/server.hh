/**
 * @file
 * The long-running serve mode: a unix-domain-socket front end over
 * SweepService + ResultStore. One `unison_sim serve` process owns a
 * store directory and accepts concurrent clients, each a stream of
 * newline-delimited JSON requests (serve/protocol.hh).
 *
 * Degradation contract:
 *  - a malformed or invalid spec answers one structured `error` reply
 *    (SimError taxonomy class + message) and the connection stays up;
 *  - a client that disconnects mid-sweep does not cancel the work:
 *    the sweep runs to completion and every result lands in the
 *    store, so a resubmission is pure cache hits;
 *  - `shutdown` stops accepting, waits for active sweeps, and exits 0
 *    (a kill -9 instead loses nothing but the points in flight -- the
 *    store's atomic-publish objects survive, CI-enforced).
 */

#ifndef UNISON_SERVE_SERVER_HH
#define UNISON_SERVE_SERVER_HH

#include <atomic>
#include <cstddef>
#include <list>
#include <mutex>
#include <string>
#include <thread>

#include "serve/protocol.hh"
#include "serve/sweep_service.hh"

namespace unison {
namespace serve {

struct ServeOptions
{
    std::string listenPath; //!< unix socket path (--listen)
    std::string storeDir;   //!< result store root (--store)
    int threads = 0;        //!< workers per submission (0 = all cores)
};

/**
 * One serving session: a listener, a thread per connected client, and
 * the store + sweep service they share. A client thread is joined and
 * dropped on the next accept after its connection ends, so a long
 * session holds threads for live connections only.
 */
class Server
{
  public:
    explicit Server(const ServeOptions &options);
    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind, announce, accept until a shutdown request, join every
     *  client. Returns the process exit code. */
    int run();

    /** Client threads currently held (finished ones not yet reaped
     *  included). */
    std::size_t clientThreads();

  private:
    /** A client thread and its end-of-connection flag. */
    struct Client
    {
        std::atomic<bool> done{false};
        std::thread thread;
    };

    void beginShutdown();
    void serveClient(int fd);
    bool handleRequest(LineChannel &channel, const json::Value &request);
    bool handleSubmit(LineChannel &channel, const json::Value &spec_doc);

    ResultStore store_;
    SweepService service_;
    std::string listenPath_;
    int listenFd_ = -1;
    std::atomic<bool> stopping_{false};
    std::mutex clientsMutex_;
    std::list<Client> clients_; //!< list: a Client never moves
};

/**
 * Bind, announce ("serving on <path>" on stderr -- scripts poll
 * readiness with `submit --ping` instead of parsing it), then serve
 * until a shutdown request. Returns the process exit code. Throws
 * SimError for startup failures (bad path: Usage; bind/listen: Io).
 */
int serveForever(const ServeOptions &options);

} // namespace serve
} // namespace unison

#endif // UNISON_SERVE_SERVER_HH
