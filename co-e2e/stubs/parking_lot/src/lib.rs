//! Offline stand-in for `parking_lot`: `co-transport` lists it as a
//! dependency but no source file the benchmark links uses it.
