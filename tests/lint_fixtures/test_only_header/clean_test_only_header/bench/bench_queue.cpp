#include "net/queue.hpp"

int main() { return maxmin::net::queue(); }
