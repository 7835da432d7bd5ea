package main

import "planted/lib"

func main() { _ = lib.Used() }
