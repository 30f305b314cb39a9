#include "serve/server.hh"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/version.hh"

namespace unison {
namespace serve {

namespace {

/** Bind a listening unix-domain socket at `path`, replacing any stale
 *  socket file from a killed predecessor (one server per path; the
 *  newest wins, which is exactly the crash-restart story the smoke
 *  test exercises). */
int
bindListener(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.empty() || path.size() >= sizeof(addr.sun_path))
        throwUsage("--listen: socket path must be 1..",
                   sizeof(addr.sun_path) - 1, " bytes, got '", path,
                   "' (", path.size(), " bytes; run from a shorter "
                   "directory or use a relative path)");
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        throwIo("cannot create socket: ", std::strerror(errno));
    ::unlink(path.c_str());
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        const int err = errno;
        ::close(fd);
        throwIo("cannot bind ", path, ": ", std::strerror(err));
    }
    if (::listen(fd, 64) != 0) {
        const int err = errno;
        ::close(fd);
        throwIo("cannot listen on ", path, ": ", std::strerror(err));
    }
    return fd;
}

} // namespace

Server::Server(const ServeOptions &options)
    : store_(options.storeDir),
      service_(store_, options.threads),
      listenPath_(options.listenPath)
{
}

int
Server::run()
{
    // A client that vanishes mid-stream must surface as an EPIPE
    // return value (LineChannel handles it), not a process kill.
    ::signal(SIGPIPE, SIG_IGN);

    listenFd_ = bindListener(listenPath_);
    std::fprintf(stderr, "unison_sim: serving on %s (store %s, %s)\n",
                 listenPath_.c_str(), store_.dir().c_str(),
                 kSimCodeVersion);

    while (true) {
        const int client = ::accept(listenFd_, nullptr, nullptr);
        if (client < 0) {
            if (errno == EINTR)
                continue;
            if (stopping_.load())
                break; // shutdown closed the listener under us
            throwIo("accept failed: ", std::strerror(errno));
        }
        std::lock_guard<std::mutex> lock(clientsMutex_);
        // Reap the clients whose connections have ended, so the
        // session holds threads for live connections only.
        for (auto it = clients_.begin(); it != clients_.end();) {
            if (!it->done.load())
                ++it;
            else {
                it->thread.join();
                it = clients_.erase(it);
            }
        }
        Client &slot = clients_.emplace_back();
        slot.thread = std::thread([this, client, &slot] {
            serveClient(client);
            slot.done.store(true);
        });
    }

    // Joining here is what makes shutdown graceful: every active
    // sweep finishes (and lands in the store) before exit.
    {
        std::lock_guard<std::mutex> lock(clientsMutex_);
        for (Client &c : clients_)
            c.thread.join();
        clients_.clear();
    }
    ::unlink(listenPath_.c_str());
    std::fprintf(stderr, "unison_sim: serve: shut down cleanly\n");
    return 0;
}

std::size_t
Server::clientThreads()
{
    std::lock_guard<std::mutex> lock(clientsMutex_);
    return clients_.size();
}

void
Server::beginShutdown()
{
    if (stopping_.exchange(true))
        return;
    // Closing the listener is the wakeup for the accept loop.
    ::shutdown(listenFd_, SHUT_RDWR);
    ::close(listenFd_);
}

void
Server::serveClient(int fd)
{
    LineChannel channel(fd);
    try {
        json::Value request;
        while (channel.readDoc(request))
            if (!handleRequest(channel, request))
                break;
    } catch (const json::Error &e) {
        // A stream that carries one malformed document cannot be
        // trusted to frame the next one: answer and hang up.
        channel.writeDoc(errorReply(SimErrc::Corrupt, e.what()));
    } catch (const SimError &e) {
        channel.writeDoc(errorReply(e.code(), e.what()));
    }
    ::close(fd);
}

/** One request; false ends the connection. */
bool
Server::handleRequest(LineChannel &channel, const json::Value &request)
{
    std::string op;
    json::Value spec_doc;
    try {
        json::ObjectReader r(request, "serve request");
        op = r.req("op").asString();
        if (op == "submit")
            spec_doc = r.req("spec");
        r.finish();
    } catch (const json::Error &e) {
        return channel.writeDoc(errorReply(SimErrc::Usage, e.what()));
    }

    if (op == "ping")
        return channel.writeDoc(pongReply());
    if (op == "shutdown") {
        beginShutdown();
        return false;
    }
    if (op == "submit")
        return handleSubmit(channel, spec_doc);
    return channel.writeDoc(errorReply(
        SimErrc::Usage,
        "unknown op '" + op + "' (known: submit, ping, shutdown)"));
}

bool
Server::handleSubmit(LineChannel &channel, const json::Value &spec_doc)
{
    // Once the peer is gone we stop writing but keep computing: the
    // sweep still publishes every point to the store, so the client's
    // retry is free.
    bool peer_alive = true;
    try {
        const GridFile grid = gridFromJson(spec_doc);
        std::string grid_hash;
        const SubmitStats stats = service_.run(
            grid,
            [&](const ResultPoint &point, const char *source) {
                if (peer_alive &&
                    !channel.writeDoc(pointReply(point, source)))
                    peer_alive = false;
            },
            &grid_hash);
        if (!peer_alive) {
            structuredWarn("serve-client-vanished",
                           {{"grid", grid.name},
                            {"note", "sweep completed into the store "
                                     "anyway"}});
            return false;
        }
        return channel.writeDoc(doneReply(
            grid.name, grid_hash, stats.points, stats.storeHits,
            stats.peerHits, stats.simulated));
    } catch (const json::Error &e) {
        // Malformed spec: classified reply, connection stays up.
        return peer_alive &&
               channel.writeDoc(errorReply(SimErrc::Corrupt, e.what()));
    } catch (const SimError &e) {
        return peer_alive &&
               channel.writeDoc(errorReply(e.code(), e.what()));
    }
}

int
serveForever(const ServeOptions &options)
{
    if (options.storeDir.empty())
        throwUsage("serve needs --store <dir> (the result store is "
                   "what makes serving worthwhile)");
    Server server(options);
    return server.run();
}

} // namespace serve
} // namespace unison
