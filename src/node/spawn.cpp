#include "node/spawn.h"

#include <cerrno>
#include <csignal>
#include <stdexcept>
#include <thread>
#include <utility>

#include <sys/wait.h>
#include <unistd.h>

#include "common/clock.h"

namespace cosmos::node {

NodeProcess& NodeProcess::operator=(NodeProcess&& other) noexcept {
  if (this != &other) {
    kill();
    pid_ = std::exchange(other.pid_, -1);
    listen_address_ = std::move(other.listen_address_);
    exit_code_ = other.exit_code_;
    waited_ = std::exchange(other.waited_, false);
  }
  return *this;
}

NodeProcess::~NodeProcess() { (void)terminate(); }

namespace {

int decode_status(int status) {
  return WIFEXITED(status)     ? WEXITSTATUS(status)
         : WIFSIGNALED(status) ? -WTERMSIG(status)
                               : -1;
}

}  // namespace

int NodeProcess::wait() {
  if (waited_ || pid_ <= 0) return exit_code_;
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0) {
    if (errno != EINTR) {
      status = 0;
      break;
    }
  }
  exit_code_ = decode_status(status);
  waited_ = true;
  pid_ = -1;
  return exit_code_;
}

std::optional<int> NodeProcess::poll() {
  if (waited_) return exit_code_;
  if (pid_ <= 0) return std::nullopt;
  int status = 0;
  pid_t got = 0;
  while ((got = ::waitpid(pid_, &status, WNOHANG)) < 0) {
    if (errno != EINTR) return std::nullopt;
  }
  if (got == 0) return std::nullopt;  // still running
  exit_code_ = decode_status(status);
  waited_ = true;
  pid_ = -1;
  return exit_code_;
}

int NodeProcess::terminate(int grace_ms) {
  if (waited_ || pid_ <= 0) return exit_code_;
  ::kill(pid_, SIGTERM);
  const auto deadline = Clock::now() + DurationMs(grace_ms);
  while (Clock::now() < deadline) {
    if (auto code = poll()) return *code;
    std::this_thread::sleep_for(DurationMs(5));
  }
  kill();  // grace expired: SIGKILL reaps promptly
  return exit_code_;
}

void NodeProcess::kill() {
  if (waited_ || pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  (void)wait();
}

void kill_and_reap(pid_t pid) {
  if (pid <= 0) return;
  ::kill(pid, SIGKILL);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno == EINTR) continue;
    break;  // ECHILD: another owner already reaped it — equally gone
  }
}

NodeProcess spawn_noded(const std::string& noded_path,
                        const std::string& listen_address,
                        const std::vector<std::string>& extra_args) {
  if (::access(noded_path.c_str(), X_OK) != 0) {
    throw std::runtime_error{"spawn_noded: not an executable: " + noded_path};
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error{"spawn_noded: fork failed"};
  }
  if (pid == 0) {
    std::vector<char*> child_argv;
    child_argv.push_back(const_cast<char*>(noded_path.c_str()));
    child_argv.push_back(const_cast<char*>("--listen"));
    child_argv.push_back(const_cast<char*>(listen_address.c_str()));
    for (const auto& arg : extra_args) {
      child_argv.push_back(const_cast<char*>(arg.c_str()));
    }
    child_argv.push_back(nullptr);
    ::execv(noded_path.c_str(), child_argv.data());
    _exit(127);  // exec failed; access() above makes this unlikely
  }
  return NodeProcess{pid, listen_address};
}

}  // namespace cosmos::node
