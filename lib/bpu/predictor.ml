type t = {
  name : string;
  predict : pc:int -> bool;
  train : pc:int -> taken:bool -> unit;
  spectate : pc:int -> taken:bool -> unit;
  storage_bits : int;
}

module Compiled = struct
  type t = {
    name : string;
    storage_bits : int;
    fill :
      arena:Whisper_trace.Arena.t -> n:int -> verdicts:Bytes.t -> unit;
  }
end

let always_taken () =
  {
    name = "always-taken";
    predict = (fun ~pc:_ -> true);
    train = (fun ~pc:_ ~taken:_ -> ());
    spectate = (fun ~pc:_ ~taken:_ -> ());
    storage_bits = 0;
  }
