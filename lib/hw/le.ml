let get_uint32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xffff_ffff
