type cache_config = {
  cache_bytes : int;
  read_ahead_bytes : int;
  immediate_report : bool;
}

type t = {
  model_name : string;
  geometry : Geometry.t;
  seek : Seek.t;
  rpm : float;
  head_switch : float;
  controller_overhead : float;
  cache : cache_config;
}

let rotation_time t = 60. /. t.rpm
let sector_time t = rotation_time t /. float_of_int t.geometry.Geometry.sectors_per_track

let media_rate t =
  float_of_int
    (t.geometry.Geometry.sectors_per_track * t.geometry.Geometry.sector_bytes)
  /. rotation_time t

let hp97560_geometry =
  Geometry.v ~cylinders:1962 ~heads:19 ~sectors_per_track:72 ~sector_bytes:512
    ~track_skew:8 ~cylinder_skew:18 ()

let hp97560 =
  {
    model_name = "HP97560";
    geometry = hp97560_geometry;
    seek = Seek.hp97560;
    rpm = 4002.;
    head_switch = 2.5e-3;
    controller_overhead = 2.0e-3;
    cache =
      {
        cache_bytes = 128 * 1024;
        read_ahead_bytes = 4 * 1024;
        immediate_report = true;
      };
  }

let naive =
  {
    model_name = "naive";
    geometry = hp97560_geometry;
    seek = Seek.constant 10.0e-3;
    rpm = 4002.;
    head_switch = 0.;
    controller_overhead = 0.;
    cache = { cache_bytes = 0; read_ahead_bytes = 0; immediate_report = false };
  }
