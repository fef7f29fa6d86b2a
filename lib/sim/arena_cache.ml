open Whisper_util
open Whisper_trace

let default_subdir = "arenas"

include Durable.Store (struct
  type value = Arena.t

  let magic = "WARC"
  let version = 1
  let stage = Whisper_error.Arena_cache
  let ext = ".arena"
  let metric_prefix = "arena_cache"
  let write = Arena.write
  let read = Arena.read
end)
