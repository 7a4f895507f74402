type state = Runnable | Zombie
type chan = Sleeping | Sem_count of int
